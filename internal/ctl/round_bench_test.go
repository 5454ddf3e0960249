package ctl

import (
	"context"
	"math/rand"
	"net"
	"testing"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// planetLabController is a controller over the 142-host PlanetLab-like
// topology with load drift, a primed planner and a seeded probe reading
// MeasuredBW. Every host is a member at 10.0.<i+1>.1, so addresses sort
// differently as strings and as numbers; the first pushers hosts are
// real table-driven depots on an emulated network and receive pushes;
// their servers come back in member order.
func planetLabController(tb testing.TB, seed int64, pushers int) (*Controller, *topo.Topology, *rand.Rand, []*depot.Server) {
	tb.Helper()
	tp := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	tp.EnableLoadDrift(0.08)
	p, err := schedule.NewPlanner(tp, schedule.DefaultEpsilon)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := p.Prime(rng, 3); err != nil {
		tb.Fatal(err)
	}
	index := make(map[string]int, tp.N())
	for i, name := range tp.HostNames() {
		index[name] = i
	}
	network := emu.NewNetwork(0)
	c, err := New(Config{
		Planner: p,
		Self:    addrCtl,
		Dial:    lsl.DialerFunc(func(a string) (net.Conn, error) { return network.Dial("10.0.255.1", a) }),
		Probe: func(src, dst string) (float64, error) {
			return tp.MeasuredBW(index[src], index[dst], rng), nil
		},
		Inventory: func(string) ([]wire.ContentDigest, error) { return nil, lsl.ErrRefused },
	})
	if err != nil {
		tb.Fatal(err)
	}
	var depots []*depot.Server
	for i, name := range tp.HostNames() {
		addr := wire.Endpoint{IP: [4]byte{10, 0, byte(i + 1), 1}, Port: 7411}
		if i < pushers {
			srv, err := depot.New(depot.Config{Self: addr, Dial: c.cfg.Dial, AcceptControl: true, TableDriven: true})
			if err != nil {
				tb.Fatal(err)
			}
			ln, err := network.Listen(addr.String())
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { srv.Close(); ln.Close() })
			go srv.Serve(ln)
			depots = append(depots, srv)
		}
		if err := c.Register(name, addr, i < pushers); err != nil {
			tb.Fatal(err)
		}
	}
	return c, tp, rng, depots
}

// BenchmarkRound142 times one control round over 142 members, 16 of
// them pushed depots: 20 022 observes, a replan and 16 table diffs,
// with the load drifting between rounds (outside the timer).
func BenchmarkRound142(b *testing.B) {
	c, tp, rng, _ := planetLabController(b, 1, 16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Round(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		tp.AdvanceLoad(rng)
		b.StartTimer()
	}
}
