package ctl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

var (
	addrA    = wire.MustEndpoint("10.0.0.1:7411")
	addrB    = wire.MustEndpoint("10.0.0.2:7411")
	addrC    = wire.MustEndpoint("10.0.0.3:7411")
	addrCtl  = wire.MustEndpoint("10.0.9.1:7500")
	ctlHosts = map[string]wire.Endpoint{"a": addrA, "b": addrB, "c": addrC}
)

// rig is a three-host mesh (a, c endpoints; b the only relay-capable
// depot) with real depot servers on an emulated network and a mutable
// probe bandwidth matrix.
type rig struct {
	t       *testing.T
	net     *emu.Network
	planner *schedule.Planner
	depots  map[string]*depot.Server

	mu sync.Mutex
	bw map[[2]string]float64
}

func newRig(t *testing.T) *rig {
	t.Helper()
	tp, err := topo.New("ctl-test", []topo.Host{
		{Name: "a", Site: "sa"},
		{Name: "b", Site: "sb", Depot: true},
		{Name: "c", Site: "sc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := schedule.NewPlanner(tp, -1)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		t:       t,
		net:     emu.NewNetwork(0.001),
		planner: p,
		depots:  make(map[string]*depot.Server),
		bw: map[[2]string]float64{
			{"a", "b"}: 100, {"b", "a"}: 100,
			{"b", "c"}: 100, {"c", "b"}: 100,
			{"a", "c"}: 10, {"c", "a"}: 10,
		},
	}
	for host, addr := range ctlHosts {
		r.depots[host] = r.addDepot(addr)
	}
	return r
}

func (r *rig) addDepot(addr wire.Endpoint) *depot.Server {
	r.t.Helper()
	host := addr.String()
	host = host[:len(host)-len(":7411")]
	srv, err := depot.New(depot.Config{
		Self:          addr,
		Dial:          lsl.DialerFunc(func(a string) (net.Conn, error) { return r.net.Dial(host, a) }),
		AcceptControl: true,
		TableDriven:   true,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	ln, err := r.net.Listen(addr.String())
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { srv.Close(); ln.Close() })
	go srv.Serve(ln)
	return srv
}

func (r *rig) probe(src, dst string) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bw[[2]string{src, dst}], nil
}

func (r *rig) setBW(src, dst string, bw float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bw[[2]string{src, dst}] = bw
	r.bw[[2]string{dst, src}] = bw
}

func (r *rig) controller(cfg Config) *Controller {
	r.t.Helper()
	cfg.Planner = r.planner
	cfg.Self = addrCtl
	if cfg.Dial == nil {
		cfg.Dial = lsl.DialerFunc(func(a string) (net.Conn, error) { return r.net.Dial("10.0.9.1", a) })
	}
	c, err := New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	for host, addr := range ctlHosts {
		if err := c.Register(host, addr, true); err != nil {
			r.t.Fatal(err)
		}
	}
	return c
}

func TestRoundProbesReplansAndPushes(t *testing.T) {
	r := newRig(t)
	reg := obs.NewRegistry()
	c := r.controller(Config{Probe: r.probe, Metrics: reg})
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 6 || rep.ProbeErrors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Epoch != 1 || rep.Pushed != 3 || rep.PushErrors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	for host, srv := range r.depots {
		if srv.RouteEpoch() != 1 {
			t.Fatalf("depot %s epoch %d, want 1", host, srv.RouteEpoch())
		}
	}
	if v := reg.Gauge(MetricEpoch).Value(); v != 1 {
		t.Fatalf("%s = %d", MetricEpoch, v)
	}
	if v := reg.Counter(MetricRouteChanges).Value(); v != 3 {
		t.Fatalf("%s = %d", MetricRouteChanges, v)
	}
	// The strong a—b—c mesh must route a→c through the depot b.
	path, err := r.planner.Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("planned path = %v, want a-b-c", path)
	}
}

func TestHysteresisSuppressesSteadyStatePushes(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Probe: r.probe})
	if _, err := c.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := c.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pushed != 0 || len(rep.Changed) != 0 {
			t.Fatalf("steady round %d pushed %d (changed %v), want 0", i, rep.Pushed, rep.Changed)
		}
		if rep.Epoch != 1 {
			t.Fatalf("steady round %d epoch %d, want 1", i, rep.Epoch)
		}
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", c.Epoch())
	}
}

func TestDegradationTriggersRepush(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Probe: r.probe})
	if _, err := c.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The relay leg collapses below the direct path: the plan must move
	// a→c off b, and the changed tables must reach the depots under a
	// fresh epoch.
	r.setBW("b", "c", 1)
	var rep RoundReport
	var err error
	for i := 0; i < 10; i++ {
		rep, err = c.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pushed > 0 {
			break
		}
	}
	if rep.Pushed == 0 {
		t.Fatal("degradation never triggered a push")
	}
	if rep.Epoch < 2 {
		t.Fatalf("epoch %d after degradation, want >= 2", rep.Epoch)
	}
	path, err := r.planner.Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("planned path = %v, want direct a-c", path)
	}
	if got := r.depots["a"].RouteEpoch(); got != rep.Epoch {
		t.Fatalf("depot a epoch %d, want %d", got, rep.Epoch)
	}
}

func TestPushFailureRetriesNextRound(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Probe: r.probe, PushTimeout: time.Second})
	// Point member c at an address nothing listens on.
	dead := wire.MustEndpoint("10.0.0.9:7411")
	if err := c.Register("c", dead, true); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PushErrors == 0 {
		t.Fatalf("report = %+v, want push errors", rep)
	}
	// The member heals (same address now listening): the unacked table
	// must be re-pushed even though the routes did not change again.
	r.addDepot(dead)
	rep, err = c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed == 0 || rep.PushErrors != 0 {
		t.Fatalf("report after heal = %+v, want a successful re-push", rep)
	}
}

func TestRefreshRepushesUnchangedTables(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Probe: r.probe, RefreshEvery: 2})
	if _, err := c.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Round(context.Background()) // round 2: refresh fires
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed != 3 {
		t.Fatalf("refresh round pushed %d, want 3", rep.Pushed)
	}
	if len(rep.Changed) != 0 {
		t.Fatalf("refresh round reported changes %v, want none", rep.Changed)
	}
}

func TestWireProbeMeasuresMesh(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{ProbeBytes: 64 << 10, PushTimeout: 5 * time.Second})
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbeErrors != 0 {
		t.Fatalf("report = %+v, want no probe errors", rep)
	}
	if rep.Pushed != 3 {
		t.Fatalf("report = %+v, want 3 pushes", rep)
	}
	if r.planner.Replans() != 1 {
		t.Fatalf("replans = %d", r.planner.Replans())
	}
}

func TestRegisterRejectsUnknownHost(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Probe: r.probe})
	if err := c.Register("nope", addrA, true); err == nil {
		t.Fatal("unknown host registered")
	}
	c.Deregister("c")
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 2 {
		t.Fatalf("probes = %d after deregister, want 2", rep.Probes)
	}
}

// An invalid reading from the probe is a failed probe, like an error
// from it: the round goes on to replan and push instead of aborting,
// and each failure is logged once, in row-major member order, although
// the readings are fed to the forecasters on parallel workers.
func TestInvalidReadingsCountAsProbeErrors(t *testing.T) {
	r := newRig(t)
	reg := obs.NewRegistry()
	bad := map[[2]string]float64{{"a", "b"}: math.NaN(), {"b", "c"}: math.Inf(1), {"c", "a"}: -1}
	probe := func(src, dst string) (float64, error) {
		if src == "b" && dst == "a" {
			return 0, errors.New("probe failed")
		}
		if v, ok := bad[[2]string{src, dst}]; ok {
			return v, nil
		}
		return r.probe(src, dst)
	}
	var logged []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "ctl: probe ") {
			logged = append(logged, strings.Join(strings.Fields(line)[2:5], " "))
		}
	}
	c := r.controller(Config{Probe: probe, Metrics: reg, Logf: logf})
	rep, err := c.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 6 || rep.ProbeErrors != 4 {
		t.Fatalf("report = %+v, want 6 probes and 4 probe errors", rep)
	}
	if rep.Pushed != 3 || rep.PushErrors != 0 || r.planner.Replans() != 1 {
		t.Fatalf("report = %+v after %d replans, want 3 pushes and a replan", rep, r.planner.Replans())
	}
	if v := reg.Counter(MetricProbeErrors).Value(); v != 4 {
		t.Fatalf("%s = %d, want 4", MetricProbeErrors, v)
	}
	var want []string
	for _, src := range c.members {
		for _, dst := range c.members {
			if _, ok := bad[[2]string{src.host, dst.host}]; ok || src.host == "b" && dst.host == "a" {
				want = append(want, src.host+" -> "+dst.host+":")
			}
		}
	}
	if !slices.Equal(logged, want) {
		t.Fatalf("probe failures logged as %v, want row-major %v", logged, want)
	}
}

// silentDialer's connections swallow everything written and never
// answer.
type silentDialer struct{}

func (silentDialer) Dial(string) (net.Conn, error) {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	return near, nil
}

// A wire probe to a silent depot must end when the round's context
// does, not PushTimeout later.
func TestWireProbeHonorsRoundDeadline(t *testing.T) {
	r := newRig(t)
	c := r.controller(Config{Dial: silentDialer{}})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Round(ctx); err == nil {
		t.Fatal("round against silent depots succeeded")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("round bounded at 200ms took %v", el)
	}
}

// Wire tables are sorted by Dst.String(), which the diff suppression
// and the pushed bytes depend on, on a mesh whose addresses
// (10.0.<i+1>.1) sort differently as strings and as numbers.
func TestWireTableSortedByAddressString(t *testing.T) {
	c, _, _, _ := planetLabController(t, 1, 0)
	if _, err := c.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	dsts, addrOf := c.tableOrder()
	numeric := func(e wire.Endpoint) uint32 { return uint32(e.IP[1])<<16 | uint32(e.IP[2])<<8 }
	misordered := 0
	for _, m := range c.members {
		got, err := c.wireTable(m, dsts, addrOf)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := c.cfg.Planner.RouteTable(m.idx)
		if err != nil {
			t.Fatal(err)
		}
		var want []wire.RouteEntry
		for dst, next := range rt {
			want = append(want, wire.RouteEntry{Dst: addrOf[int(dst)], Next: addrOf[int(next)]})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Dst.String() < want[j].Dst.String() })
		if !slices.Equal(got, want) {
			t.Fatalf("table of %s is not its routes sorted by Dst.String()", m.host)
		}
		for i := 1; i < len(got); i++ {
			if numeric(got[i].Dst) < numeric(got[i-1].Dst) {
				misordered++
			}
		}
	}
	if misordered == 0 {
		t.Fatal("string and numeric address order agree: the mesh does not test the order")
	}
}
