package ctl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/nws"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// A round observes on parallel workers, snapshots and builds trees on
// parallel workers, and pushes concurrently; none of that may change a
// bit of the plan. Every round is checked against a reference planner
// fed the same readings serially and replanned on one core: every
// forecast, every tree and every pushed table.
func TestRoundMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			runtime.GOMAXPROCS(procs)
			c, tp, rng, _ := planetLabController(t, seed, 16)
			ref := referencePlanner(t, seed)
			type reading struct {
				src, dst string
				bw       float64
			}
			var readings []reading
			probe := c.cfg.Probe
			c.cfg.Probe = func(src, dst string) (float64, error) {
				bw, err := probe(src, dst)
				readings = append(readings, reading{src, dst, bw})
				return bw, err
			}
			for round := 1; round <= 3; round++ {
				readings = readings[:0]
				rep, err := c.Round(context.Background())
				if err != nil || rep.ProbeErrors != 0 || rep.PushErrors != 0 {
					t.Fatalf("procs %d seed %d round %d: %+v, %v", procs, seed, round, rep, err)
				}
				snap := c.cfg.Planner.Monitor.Snapshot()
				runtime.GOMAXPROCS(1)
				for _, r := range readings {
					if err := ref.Observe(r.src, r.dst, r.bw); err != nil {
						t.Fatal(err)
					}
				}
				if err := ref.Replan(); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("procs %d seed %d round %d", procs, seed, round)
				samePlans(t, where, snap, c.cfg.Planner, ref)
				runtime.GOMAXPROCS(procs)
				dsts, addrOf := c.tableOrder()
				serial := &Controller{cfg: Config{Planner: ref}}
				for _, m := range c.members {
					if !m.push {
						continue
					}
					want, err := serial.wireTable(m, dsts, addrOf)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(m.last, want) {
						t.Fatalf("%s: table pushed to %s differs from the serial plan's", where, m.host)
					}
				}
				tp.AdvanceLoad(rng)
			}
		}
	}
}

// referencePlanner is the planner planetLabController builds, primed
// from the same seed.
func referencePlanner(t *testing.T, seed int64) *schedule.Planner {
	t.Helper()
	tp := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	tp.EnableLoadDrift(0.08)
	p, err := schedule.NewPlanner(tp, schedule.DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prime(rand.New(rand.NewSource(seed)), 3); err != nil {
		t.Fatal(err)
	}
	return p
}

// samePlans compares a planner's forecasts, snapshotted as g, and its
// trees with want's, bit for bit.
func samePlans(t *testing.T, where string, g nws.Matrix, got, want *schedule.Planner) {
	t.Helper()
	w := want.Monitor.Snapshot()
	for i := range w.BW {
		for j := range w.BW[i] {
			if math.Float64bits(g.BW[i][j]) != math.Float64bits(w.BW[i][j]) {
				t.Fatalf("%s: forecast %d->%d is %v, serial %v", where, i, j, g.BW[i][j], w.BW[i][j])
			}
		}
	}
	for s := range w.Hosts {
		gt, err := got.Tree(s)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := want.Tree(s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gt.Parent, wt.Parent) {
			t.Fatalf("%s: tree of %d differs from the serial plan's", where, s)
		}
	}
}

// The probe may keep state: a round calls it once per ordered pair, in
// row-major member order, and never twice at once.
func TestProbeIsSerialInMemberOrder(t *testing.T) {
	c, _, _, _ := planetLabController(t, 1, 0)
	var inFlight, most atomic.Int32
	var got [][2]string
	probe := c.cfg.Probe
	c.cfg.Probe = func(src, dst string) (float64, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		if n > most.Load() {
			most.Store(n)
		}
		got = append(got, [2]string{src, dst})
		runtime.Gosched()
		return probe(src, dst)
	}
	if _, err := c.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want [][2]string
	for _, src := range c.members {
		for _, dst := range c.members {
			if src != dst {
				want = append(want, [2]string{src.host, dst.host})
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("probed %d pairs, not the %d ordered pairs in row-major member order", len(got), len(want))
	}
	if m := most.Load(); m != 1 {
		t.Fatalf("%d probes in flight at once, want 1", m)
	}
}

// Cancelling mid-probe returns the context's error once the observe
// workers have drained what was probed, and leaves no goroutine behind.
func TestCancelMidProbeLeavesNoGoroutine(t *testing.T) {
	c, _, _, _ := planetLabController(t, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cut = 1000 // mid-row: 141 probes per row
	calls, probe := 0, c.cfg.Probe
	c.cfg.Probe = func(src, dst string) (float64, error) {
		if calls++; calls == cut {
			cancel()
		}
		return probe(src, dst)
	}
	before, updates := runtime.NumGoroutine(), c.cfg.Planner.Monitor.Updates()
	rep, err := c.Round(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("round err = %v, want context.Canceled", err)
	}
	if rep.Probes != cut || c.cfg.Planner.Monitor.Updates()-updates != cut {
		t.Fatalf("%d probes, %d observed; want %d of each", rep.Probes, c.cfg.Planner.Monitor.Updates()-updates, cut)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the round, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// One push of sixteen fails: that member alone stays dirty, and every
// depot that took the round's tables holds the one epoch of the round.
func TestOneFailedPushStaysDirty(t *testing.T) {
	c, _, _, depots := planetLabController(t, 3, 16)
	dead := c.members[4]
	if err := c.Register(dead.host, wire.MustEndpoint("10.0.250.1:7411"), true); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed != 15 || rep.PushErrors != 1 || rep.Epoch != 1 {
		t.Fatalf("report = %+v, want 15 pushed, 1 push error, epoch 1", rep)
	}
	for i, m := range c.members[:16] {
		if (m.last == nil) != (m == dead) {
			t.Fatalf("member %d (%s) dirty = %v", i, m.host, m.last == nil)
		}
		if m != dead && depots[i].RouteEpoch() != rep.Epoch {
			t.Fatalf("depot %d at epoch %d, round at %d", i, depots[i].RouteEpoch(), rep.Epoch)
		}
	}
}

// A member that accepts and never answers holds neither the inventory
// poll nor its push past the round's context.
func TestRoundBoundsSilentInventoryAndPush(t *testing.T) {
	r := newRig(t)
	silent := wire.MustEndpoint("10.0.0.8:7411")
	ln, err := r.net.Listen(silent.String())
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var mu sync.Mutex
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	c := r.controller(Config{Probe: r.probe})
	if err := c.Register("c", silent, true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := c.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("round bounded at 300ms took %v", el)
	}
	if rep.InventoryErrors == 0 || rep.PushErrors == 0 {
		t.Fatalf("report = %+v, want inventory and push errors counted", rep)
	}
}
