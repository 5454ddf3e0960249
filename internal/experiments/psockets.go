package experiments

import (
	"fmt"

	"github.com/netlogistics/lsl/internal/netsim"
	"github.com/netlogistics/lsl/internal/pipesim"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/tcpsim"
)

// PSocketsRow summarizes one transfer strategy on the window-limited
// reference path.
type PSocketsRow struct {
	Strategy  string
	Bandwidth float64 // bytes/sec
	Speedup   float64 // vs single direct connection
}

// PSocketsComparison contrasts the paper's serial-socket approach with
// the PSockets-style parallel-socket striping it cites as related work
// ("that work is focused on an application-level solution rather than
// 'in the network' support"): one window-limited 80 ms path, a transfer
// striped over k parallel connections, and the same transfer relayed
// through a mid-path depot. Both defeat the per-connection window
// limit; parallel sockets multiply aggregate window, the depot halves
// the RTT each window must cover — and only the depot approach also
// shortens the loss-recovery control loop.
func PSocketsComparison(seed int64, size int64, streams []int) ([]PSocketsRow, error) {
	if size <= 0 {
		size = 32 << 20
	}
	if len(streams) == 0 {
		streams = []int{2, 4, 8}
	}
	const (
		capacity = 12.5e6 // 100 Mbit path
		loss     = 2e-5
		window   = 64 << 10 // the PlanetLab-era socket buffers
	)
	full := tcpsim.Config{
		RTT:      simtime.Milliseconds(80),
		Capacity: capacity,
		LossRate: loss,
		SndBuf:   window,
		RcvBuf:   window,
	}
	half := full
	half.RTT = simtime.Milliseconds(40)
	half.LossRate = loss / 2

	rows := make([]PSocketsRow, 0, len(streams)+2)

	// Single direct connection: the baseline.
	eng := netsim.New(seed)
	res, err := pipesim.Run(eng, pipesim.Direct(size, "direct", full))
	if err != nil {
		return nil, err
	}
	base := res.Bandwidth
	rows = append(rows, PSocketsRow{Strategy: "single direct", Bandwidth: base, Speedup: 1})

	// PSockets-style striping: k connections share the bottleneck
	// fairly and each carries size/k.
	for _, k := range streams {
		perConn := full
		perConn.Capacity = capacity / float64(k)
		chains := make([]pipesim.Chain, k)
		share := size / int64(k)
		for i := range chains {
			s := share
			if i == 0 {
				s += size - share*int64(k) // remainder
			}
			chains[i] = pipesim.Direct(s, fmt.Sprintf("stripe-%d", i), perConn)
		}
		_, span, err := makespan(chains, seed)
		if err != nil {
			return nil, err
		}
		bw := float64(size) / span
		rows = append(rows, PSocketsRow{
			Strategy:  fmt.Sprintf("parallel x%d", k),
			Bandwidth: bw,
			Speedup:   bw / base,
		})
	}

	// The serial-socket (LSL) alternative: one depot at the midpoint.
	eng = netsim.New(seed)
	res, err = pipesim.Run(eng, pipesim.Relayed(size,
		[]pipesim.Hop{{Name: "sub1", TCP: half}, {Name: "sub2", TCP: half}},
		[]pipesim.Depot{{}},
	))
	if err != nil {
		return nil, err
	}
	rows = append(rows, PSocketsRow{
		Strategy:  "LSL via 1 depot",
		Bandwidth: res.Bandwidth,
		Speedup:   res.Bandwidth / base,
	})

	// And both together: the approaches compose.
	k := 2
	perConn := half
	perConn.Capacity = capacity / float64(k)
	chains := make([]pipesim.Chain, k)
	for i := range chains {
		chains[i] = pipesim.Relayed(size/int64(k),
			[]pipesim.Hop{{TCP: perConn}, {TCP: perConn}},
			[]pipesim.Depot{{}})
	}
	_, span, err := makespan(chains, seed)
	if err != nil {
		return nil, err
	}
	bw := float64(size) / span
	rows = append(rows, PSocketsRow{
		Strategy:  "LSL + parallel x2",
		Bandwidth: bw,
		Speedup:   bw / base,
	})
	return rows, nil
}

// makespan runs the chains side by side on a fresh engine and returns
// their results and the seconds from the first start to the last
// finish.
func makespan(chains []pipesim.Chain, seed int64) ([]pipesim.Result, float64, error) {
	results, err := pipesim.RunMany(netsim.New(seed), chains)
	if err != nil {
		return nil, 0, err
	}
	var end simtime.Time
	for _, r := range results {
		end = max(end, r.End)
	}
	return results, end.Sub(results[0].Start).Seconds(), nil
}

// psocketsTable renders the comparison.
func psocketsTable(rows []PSocketsRow) Table {
	return tableOf("Related work: parallel sockets (PSockets) vs serial sockets (LSL)\n"+
		"(32MB over a window-limited 80ms, 100Mbit path)", []Column{
		{"strategy", "%-20s", "strategy", "%s"},
		{"BW Mbit/s", "%14.2f", "bw_mbit", "%.4f"},
		{"speedup", "%8.2fx", "speedup", "%.4f"},
	}, rows, func(r PSocketsRow) []any {
		return []any{r.Strategy, mbit(r.Bandwidth), r.Speedup}
	})
}
