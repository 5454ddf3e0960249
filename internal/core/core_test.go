package core

import (
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/topo"
)

// smallSystem builds a fast in-process deployment for tests.
func smallSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(topo.TwoPath(), Config{TimeScale: 0.0005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestSystemConstruction(t *testing.T) {
	sys := smallSystem(t)
	if sys.Topo.N() != 5 {
		t.Fatalf("hosts = %d", sys.Topo.N())
	}
	if sys.Planner.Replans() != 1 {
		t.Fatalf("replans = %d", sys.Planner.Replans())
	}
	// Endpoints are unique.
	seen := map[string]bool{}
	for i := 0; i < sys.Topo.N(); i++ {
		e := sys.Endpoint(i).String()
		if seen[e] {
			t.Fatalf("duplicate endpoint %s", e)
		}
		seen[e] = true
	}
}

func TestDirectTransferDelivers(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.DirectTransfer(topo.UCSB, topo.UIUC, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 256<<10 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Bandwidth <= 0 || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Path) != 2 {
		t.Fatalf("path = %v", res.Path)
	}
}

// TestTransferWeighted: a deployment with fair sharing enabled on
// every depot still delivers a weighted transfer end to end — the
// weight option rides the header through forwarding depots and the
// work-conserving schedulers cost a sole session nothing.
func TestTransferWeighted(t *testing.T) {
	sys, err := NewSystem(topo.TwoPath(), Config{
		TimeScale: 0.0005,
		Seed:      1,
		FairShare: &fairshare.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	res, err := sys.TransferWeighted(topo.UCSB, topo.UIUC, 256<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 256<<10 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestScheduledTransferUsesPlannedPath(t *testing.T) {
	sys := smallSystem(t)
	planned, err := sys.PlannedPath(topo.UCSB, topo.UIUC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Transfer(topo.UCSB, topo.UIUC, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Path, ",") != strings.Join(planned, ",") {
		t.Fatalf("transfer path %v != planned %v", res.Path, planned)
	}
	if len(planned) > 2 {
		// Relay hosts must be depots.
		for _, name := range planned[1 : len(planned)-1] {
			i, _ := sys.Topo.HostIndex(name)
			if !sys.Topo.Hosts[i].Depot {
				t.Fatalf("relay %s is not a depot", name)
			}
		}
	}
}

func TestTransferValidation(t *testing.T) {
	sys := smallSystem(t)
	if _, err := sys.Transfer("nope", topo.UIUC, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := sys.Transfer(topo.UCSB, "nope", 1); err == nil {
		t.Fatal("unknown destination accepted")
	}
	if _, err := sys.Transfer(topo.UCSB, topo.UIUC, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := sys.Transfer(topo.UCSB, topo.UIUC, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	// A one-host path has no first hop to dial.
	if _, err := sys.TransferHopByHop(topo.UCSB, topo.UCSB, 1); err == nil {
		t.Fatal("hop-by-hop transfer to itself accepted")
	}
	if _, err := sys.TransferReliable(topo.UCSB, topo.UCSB, 1, DefaultRecovery()); err == nil {
		t.Fatal("reliable transfer to itself accepted")
	}
}

func TestMulticastDeliversToAllLeaves(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.Multicast(topo.UCSB, []string{topo.UIUC, topo.UF}, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaves) != 2 {
		t.Fatalf("leaves = %v", res.Leaves)
	}
	if res.Bytes != 2*64<<10 {
		t.Fatalf("delivered bytes = %d, want both leaves' copies", res.Bytes)
	}
	wantLeaves := map[string]bool{topo.UIUC: true, topo.UF: true}
	for _, l := range res.Leaves {
		if !wantLeaves[l] {
			t.Fatalf("unexpected leaf %s", l)
		}
	}
	if res.Tree == nil || res.Tree.Size() < 3 {
		t.Fatalf("tree = %+v", res.Tree)
	}
}

func TestMulticastValidation(t *testing.T) {
	sys := smallSystem(t)
	if _, err := sys.Multicast(topo.UCSB, nil, 1); err == nil {
		t.Fatal("empty destination list accepted")
	}
	if _, err := sys.Multicast("nope", []string{topo.UIUC}, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestSeveralSequentialTransfers(t *testing.T) {
	sys := smallSystem(t)
	for i := 0; i < 4; i++ {
		if _, err := sys.Transfer(topo.UCSB, topo.UF, 64<<10); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	sys, err := NewSystem(topo.TwoPath(), Config{TimeScale: 0.0005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close()
}

// miniWindowTopo is a three-host line: 64 KB windows, 160 ms end-to-end
// RTT, a well-provisioned depot in the middle at 80 ms from each end.
// The long RTTs keep the emulated physics far above goroutine-scheduling
// noise, so the speedup assertion is stable under load.
func miniWindowTopo() *topo.Topology {
	tp, err := topo.New("mini", []topo.Host{
		{Name: "src.edu", Site: "src", SndBuf: 64 << 10, RcvBuf: 64 << 10},
		{Name: "mid.pop", Site: "mid", SndBuf: 8 << 20, RcvBuf: 8 << 20,
			Depot: true, ForwardRate: 100e6, PipelineBytes: 8 << 20},
		{Name: "dst.edu", Site: "dst", SndBuf: 64 << 10, RcvBuf: 64 << 10},
	})
	if err != nil {
		panic(err)
	}
	src, mid, dst := tp.MustHost("src.edu"), tp.MustHost("mid.pop"), tp.MustHost("dst.edu")
	tp.SetLink(src, mid, topo.Link{RTT: 0.080, Capacity: 100e6, Loss: 1e-6})
	tp.SetLink(mid, dst, topo.Link{RTT: 0.080, Capacity: 100e6, Loss: 1e-6})
	tp.SetLink(src, dst, topo.Link{RTT: 0.160, Capacity: 100e6, Loss: 2e-6})
	tp.MeasureNoise = 0.02
	return tp
}

func TestWindowLimitedLogisticalEffectOnWire(t *testing.T) {
	// On a topology with tiny socket buffers and a mid-path depot, the
	// real wire stack should show the logistical effect: the relayed
	// path beats the direct one. Uses generous latency so emulation
	// overhead is negligible.
	tp := miniWindowTopo()
	sys, err := NewSystem(tp, Config{TimeScale: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const size = 256 << 10
	direct, err := sys.DirectTransfer("src.edu", "dst.edu", size)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := sys.PlannedPath("src.edu", "dst.edu")
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) < 3 {
		t.Fatalf("planner chose direct (%v); topology should force a relay", planned)
	}
	relayed, err := sys.Transfer("src.edu", "dst.edu", size)
	if err != nil {
		t.Fatal(err)
	}
	speedup := relayed.Bandwidth / direct.Bandwidth
	if speedup < 1.2 {
		t.Fatalf("wire-level logistical speedup = %.2f, want > 1.2 (direct %v, relayed %v)",
			speedup, direct.Elapsed, relayed.Elapsed)
	}
}

func TestFeedObservationsAndReplan(t *testing.T) {
	sys, err := NewSystem(topo.TwoPath(), Config{
		TimeScale:        0.0005,
		Seed:             1,
		FeedObservations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	before := sys.Planner.Monitor.Updates()
	if _, err := sys.DirectTransfer(topo.UCSB, topo.UIUC, 64<<10); err != nil {
		t.Fatal(err)
	}
	if got := sys.Planner.Monitor.Updates(); got != before+1 {
		t.Fatalf("observations = %d, want %d", got, before+1)
	}
	// Relayed transfers do not pollute the end-to-end series.
	planned, err := sys.PlannedPath(topo.UCSB, topo.UIUC)
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) > 2 {
		mid := sys.Planner.Monitor.Updates()
		if _, err := sys.Transfer(topo.UCSB, topo.UIUC, 64<<10); err != nil {
			t.Fatal(err)
		}
		if got := sys.Planner.Monitor.Updates(); got != mid {
			t.Fatalf("relayed transfer recorded an observation: %d -> %d", mid, got)
		}
	}

	replans := sys.Planner.Replans()
	if err := sys.Replan(); err != nil {
		t.Fatal(err)
	}
	if sys.Planner.Replans() != replans+1 {
		t.Fatal("Replan did not rebuild the plan")
	}
}

func TestTransferHopByHop(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.TransferHopByHop(topo.UCSB, topo.UIUC, 96<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 96<<10 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	// The planned path for this pair is relayed; the bytes arrived, so
	// the depots' route tables carried the session end to end without a
	// source route.
	if len(res.Path) < 2 {
		t.Fatalf("path = %v", res.Path)
	}
	if _, err := sys.TransferHopByHop("nope", topo.UIUC, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := sys.TransferHopByHop(topo.UCSB, topo.UIUC, 0); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	sys := smallSystem(t)
	pairs := [][2]string{
		{topo.UCSB, topo.UIUC},
		{topo.UCSB, topo.UF},
		{topo.UIUC, topo.UF},
		{topo.UF, topo.UCSB},
		{topo.Denver, topo.Houston},
		{topo.UIUC, topo.UCSB},
	}
	errs := make(chan error, len(pairs))
	for _, p := range pairs {
		p := p
		go func() {
			_, err := sys.Transfer(p[0], p[1], 48<<10)
			errs <- err
		}()
	}
	for range pairs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
