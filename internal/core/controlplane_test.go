package core

import (
	"strings"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/ctl"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/topo"
)

// controlTopo is a diamond: two well-provisioned relay paths (the
// primary through relay-a slightly better than the backup through
// relay-b, well outside ε) over a weak direct link — so the minimax
// plan prefers relay-a until its leg degrades, then must move to
// relay-b.
func controlTopo() *topo.Topology {
	tp, err := topo.New("control-diamond", []topo.Host{
		{Name: "src.edu", Site: "src", SndBuf: 8 << 20, RcvBuf: 8 << 20},
		{Name: "relay-a", Site: "a", SndBuf: 8 << 20, RcvBuf: 8 << 20,
			Depot: true, ForwardRate: 200e6},
		{Name: "relay-b", Site: "b", SndBuf: 8 << 20, RcvBuf: 8 << 20,
			Depot: true, ForwardRate: 200e6},
		{Name: "dst.edu", Site: "dst", SndBuf: 8 << 20, RcvBuf: 8 << 20},
	})
	if err != nil {
		panic(err)
	}
	src, a, b, dst := tp.MustHost("src.edu"), tp.MustHost("relay-a"), tp.MustHost("relay-b"), tp.MustHost("dst.edu")
	tp.SetLink(src, a, topo.Link{RTT: 0.020, Capacity: 100e6, Loss: 1e-6})
	tp.SetLink(a, dst, topo.Link{RTT: 0.020, Capacity: 100e6, Loss: 1e-6})
	tp.SetLink(src, b, topo.Link{RTT: 0.020, Capacity: 80e6, Loss: 1e-6})
	tp.SetLink(b, dst, topo.Link{RTT: 0.020, Capacity: 80e6, Loss: 1e-6})
	tp.SetLink(src, dst, topo.Link{RTT: 0.040, Capacity: 10e6, Loss: 1e-6})
	tp.SetLink(a, b, topo.Link{RTT: 0.020, Capacity: 50e6, Loss: 1e-6})
	tp.MeasureNoise = 0.01
	return tp
}

// tracePath reconstructs the hops a session actually traversed from its
// depot Connect events: the source endpoint, then each hop's dialed
// peer in hop order.
func tracePath(sink *obs.MemorySink, srcEP, id string) []string {
	byHop := map[int]string{}
	maxHop := 0
	for _, e := range sink.Session(id) {
		if e.Kind != obs.KindConnect || e.Hop < 1 {
			continue
		}
		byHop[e.Hop] = e.Peer
		if e.Hop > maxHop {
			maxHop = e.Hop
		}
	}
	path := []string{srcEP}
	for h := 1; h <= maxHop; h++ {
		if p, ok := byHop[h]; ok {
			path = append(path, p)
		}
	}
	return path
}

// waitDeliver returns the deliver event of a session other than `not`,
// waiting a bounded time for it. A Transfer* returns when the sink's
// handler has verified the payload and completed the waiter; the
// delivering depot emits KindDeliver only after that handler has
// returned to it, because the event reports the handler's whole run —
// the bytes it consumed, the moment it finished. So the event can
// trail the transfer's return by a scheduling quantum, and a test that
// reads the trace the moment the call returns must wait for it.
func waitDeliver(t *testing.T, sink *obs.MemorySink, not string) obs.Event {
	t.Helper()
	var found obs.Event
	eventually(t, "a delivery traced (other than session "+not+")", func() bool {
		for _, e := range sink.Events() {
			if e.Kind == obs.KindDeliver && e.Session != not {
				found = e
				return true
			}
		}
		return false
	})
	return found
}

// eventually polls cond for a bounded time: for state a depot settles
// after the sink has already seen the session end — a relay's
// end-of-session gauges, the deliver event.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
	}
}

// plannedEndpoints maps the planner's current path to endpoint strings.
func plannedEndpoints(t *testing.T, sys *System, src, dst string) []string {
	t.Helper()
	names, err := sys.PlannedPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(names))
	for k, n := range names {
		i, ok := sys.Topo.HostIndex(n)
		if !ok {
			t.Fatalf("planned host %q not in topology", n)
		}
		out[k] = sys.Endpoint(i).String()
	}
	return out
}

// TestControlPlaneReroutesAroundDegradation is the control plane's
// acceptance test: sessions carry no source route and are forwarded
// purely by controller-pushed tables; a mid-workload link degradation
// makes the controller repush, and the next transfer verifiably follows
// the recomputed minimax path.
func TestControlPlaneReroutesAroundDegradation(t *testing.T) {
	tp := controlTopo()
	reg := obs.NewRegistry()
	sink := &obs.MemorySink{}
	sys, err := NewSystem(tp, Config{
		TimeScale:    0.0005,
		Seed:         7,
		ControlPlane: true,
		Metrics:      reg,
		Trace:        sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// The initial control round already ran: every depot holds an
	// epoch-1 table.
	if got := sys.Control().Epoch(); got != 1 {
		t.Fatalf("epoch after construction = %d, want 1", got)
	}

	planned := plannedEndpoints(t, sys, "src.edu", "dst.edu")
	if len(planned) != 3 || planned[1] != sys.Endpoint(tp.MustHost("relay-a")).String() {
		t.Fatalf("initial planned path %v, want src → relay-a → dst", planned)
	}

	const size = 128 << 10
	res, err := sys.TransferTableDriven("src.edu", "dst.edu", size)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	// The session's trace must show it actually took the planned path —
	// no source route was present to force it.
	firstID := waitDeliver(t, sink, "").Session
	srcEP := sys.Endpoint(tp.MustHost("src.edu")).String()
	actual := tracePath(sink, srcEP, firstID)
	if strings.Join(actual, ",") != strings.Join(planned, ",") {
		t.Fatalf("traced path %v != planned %v", actual, planned)
	}

	// Steady state: within-ε probe jitter must not cause pushes.
	for i := 0; i < 3; i++ {
		rep, err := sys.ControlRound()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pushed != 0 {
			t.Fatalf("steady round %d pushed %d tables (changed %v)", i, rep.Pushed, rep.Changed)
		}
	}
	if got := sys.Control().Epoch(); got != 1 {
		t.Fatalf("epoch after steady rounds = %d, want 1 (hysteresis)", got)
	}

	// Mid-workload degradation: relay-a's exit leg collapses under the
	// direct path. The probes see it, the forecasts track it, and the
	// controller must repush tables that route via relay-b.
	tp.SetLink(tp.MustHost("relay-a"), tp.MustHost("dst.edu"), topo.Link{RTT: 0.020, Capacity: 1e6, Loss: 1e-6})
	var rep ctl.RoundReport
	moved := false
	for i := 0; i < 20 && !moved; i++ {
		rep, err = sys.ControlRound()
		if err != nil {
			t.Fatal(err)
		}
		now := plannedEndpoints(t, sys, "src.edu", "dst.edu")
		moved = len(now) == 3 && now[1] == sys.Endpoint(tp.MustHost("relay-b")).String()
	}
	if !moved {
		t.Fatalf("planner never moved src→dst onto relay-b after degradation")
	}
	if rep.Pushed == 0 || rep.Epoch < 2 {
		t.Fatalf("repush round = %+v, want pushes under a fresh epoch", rep)
	}

	// The next transfer — still no source route — must follow the
	// recomputed minimax path via relay-b, asserted against
	// schedule.Planner.Path by way of PlannedPath.
	planned = plannedEndpoints(t, sys, "src.edu", "dst.edu")
	res2, err := sys.TransferTableDriven("src.edu", "dst.edu", size)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bytes != size {
		t.Fatalf("bytes = %d", res2.Bytes)
	}
	secondID := waitDeliver(t, sink, firstID).Session
	actual2 := tracePath(sink, srcEP, secondID)
	if strings.Join(actual2, ",") != strings.Join(planned, ",") {
		t.Fatalf("post-degradation traced path %v != planned %v", actual2, planned)
	}
	if actual2[1] != sys.Endpoint(tp.MustHost("relay-b")).String() {
		t.Fatalf("post-degradation path %v does not relay via relay-b", actual2)
	}

	// The /metrics surface must expose the control plane: table epoch,
	// pushes, hits and route changes all moved.
	if v := reg.Gauge(depot.MetricTableEpoch).Value(); v < 2 {
		t.Fatalf("%s = %d, want >= 2", depot.MetricTableEpoch, v)
	}
	if v := reg.Counter(depot.MetricTablePushes).Value(); v == 0 {
		t.Fatalf("%s = 0", depot.MetricTablePushes)
	}
	if v := reg.Counter(depot.MetricTableHits).Value(); v == 0 {
		t.Fatalf("%s = 0", depot.MetricTableHits)
	}
	if v := reg.Counter(ctl.MetricRouteChanges).Value(); v == 0 {
		t.Fatalf("%s = 0", ctl.MetricRouteChanges)
	}
	if v := reg.Gauge(ctl.MetricEpoch).Value(); v < 2 {
		t.Fatalf("%s = %d, want >= 2", ctl.MetricEpoch, v)
	}
}

// TestControlPlaneGuards covers the mode checks of the control-plane
// façade on a system built without one.
func TestControlPlaneGuards(t *testing.T) {
	sys := smallSystem(t)
	if sys.Control() != nil {
		t.Fatal("non-control system has a controller")
	}
	if _, err := sys.ControlRound(); err == nil {
		t.Fatal("ControlRound succeeded without a control plane")
	}
	if _, err := sys.TransferTableDriven(topo.UCSB, topo.UIUC, 1024); err == nil {
		t.Fatal("TransferTableDriven succeeded without a control plane")
	}
}
