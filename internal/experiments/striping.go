package experiments

import (
	"fmt"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
)

// StripingConfig parameterizes the striped-sublink throughput sweep.
type StripingConfig struct {
	Seed    int64
	Size    int64 // bytes per transfer
	Stripes []int // stripe counts to measure, in order
	Reps    int   // transfers averaged per stripe count
}

// stripingTimeScale is the sweep's mild emulation time compression:
// the scaled link latency must stay well above goroutine scheduling
// granularity or the window-limited regime the sweep exists to show
// disappears into wall-clock noise.
const stripingTimeScale = 0.05

// DefaultStriping measures 4 MB transfers at 1/2/4/8 stripes, three
// runs each, over a window-limited relay path.
func DefaultStriping() StripingConfig {
	return StripingConfig{
		Seed:    1,
		Size:    4 << 20,
		Stripes: []int{1, 2, 4, 8},
		Reps:    3,
	}
}

// StripingRow is the measured and forecast throughput at one stripe
// count.
type StripingRow struct {
	Stripes   int
	Mbit      float64 // mean delivered throughput, Mbit per emulated second
	Speedup   float64 // vs the 1-stripe row (1.0 when no 1-stripe row ran)
	Predicted float64 // scheduler's stripe-aware bottleneck forecast, Mbit/s
}

// stripingTopology is the sweep's testbed: a fast two-hop depot path
// whose end hosts advertise deliberately small socket buffers, so a
// single sublink is pinned at roughly window/RTT — the loss- and
// window-limited regime where the paper's wide-area transfers live —
// while the physical links have capacity to spare. Striping the
// session across parallel sublinks multiplies the effective window
// without touching the hosts' buffer sizing.
func stripingTopology() (*topo.Topology, error) {
	const window = int64(64 << 10)
	return wan("striping", []topo.Host{
		{Name: "src", Site: "src", SndBuf: window, RcvBuf: window},
		{Name: "relay", Site: "relay", SndBuf: window, RcvBuf: window,
			Depot: true, PipelineBytes: 1 << 20},
		{Name: "dst", Site: "dst", SndBuf: window, RcvBuf: window},
	}, []wanLink{
		{"src", "relay", 40, 622},
		{"relay", "dst", 40, 622},
		{"src", "dst", 80, 2},
	})
}

// wanLink is one symmetric link of a testbed: its end hosts, its
// round-trip time in ms and its capacity in Mbit/s.
type wanLink struct {
	a, b      string
	rtt, mbit float64
}

// wan builds a testbed from its hosts and links.
func wan(name string, hosts []topo.Host, links []wanLink) (*topo.Topology, error) {
	tp, err := topo.New(name, hosts)
	if err != nil {
		return nil, err
	}
	for _, l := range links {
		tp.SetLink(tp.MustHost(l.a), tp.MustHost(l.b), topo.Link{RTT: simtime.Milliseconds(l.rtt), Capacity: l.mbit * (1e6 / 8)})
	}
	return tp, nil
}

// Striping measures delivered throughput of one object moved over the
// depot path with a varying number of parallel sublinks ("stripes"),
// and sets each measurement against the scheduler's stripe-aware
// bottleneck forecast for the same path. The expected shape: near-
// linear speedup while the per-sublink window is the bottleneck,
// flattening once the stripes saturate the path or the depot pump.
func Striping(cfg StripingConfig) ([]StripingRow, error) {
	if cfg.Size <= 0 {
		cfg.Size = DefaultStriping().Size
	}
	if len(cfg.Stripes) == 0 {
		cfg.Stripes = DefaultStriping().Stripes
	}
	if cfg.Reps <= 0 {
		cfg.Reps = DefaultStriping().Reps
	}
	tp, err := stripingTopology()
	if err != nil {
		return nil, fmt.Errorf("experiments: striping: %w", err)
	}
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale: stripingTimeScale,
		Seed:      cfg.Seed,
		Metrics:   obs.NewRegistry(),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: striping: %w", err)
	}
	defer sys.Close()

	path, err := sys.Planner.Path(tp.MustHost("src"), tp.MustHost("dst"))
	if err != nil {
		return nil, fmt.Errorf("experiments: striping: %w", err)
	}

	rows := make([]StripingRow, 0, len(cfg.Stripes))
	var base float64 // 1-stripe mean, for the speedup column
	for _, n := range cfg.Stripes {
		var mbits []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			res, err := sys.TransferStriped("src", "dst", cfg.Size, n, core.DefaultRecovery())
			if err != nil {
				return nil, fmt.Errorf("experiments: striping %d stripes: %w", n, err)
			}
			mbits = append(mbits, res.Bandwidth*8/1e6)
		}
		row := StripingRow{
			Stripes:   n,
			Mbit:      stats.Mean(mbits),
			Predicted: sys.Planner.StripedBottleneck(path, n) * 8 / 1e6,
		}
		if n == 1 {
			base = row.Mbit
		}
		row.Speedup = 1
		if base > 0 {
			row.Speedup = row.Mbit / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// stripingTable renders the sweep.
func stripingTable(rows []StripingRow) Table {
	return tableOf("Striping: parallel sublinks over a window-limited depot path (4 MB object)", []Column{
		{"stripes", "%8d", "stripes", "%d"},
		{"Mbit/s", "%12.2f", "mbit", "%.4f"},
		{"speedup", "%8.2fx", "speedup", "%.4f"},
		{"forecast Mbit/s", "%15.2f", "forecast_mbit", "%.4f"},
	}, rows, func(r StripingRow) []any {
		return []any{r.Stripes, r.Mbit, r.Speedup, r.Predicted}
	})
}

// SuggestedStripes reruns the sweep's planning step alone and reports
// the scheduler's pick: the smallest stripe count past which the
// stripe-aware bottleneck forecast stops improving.
func SuggestedStripes(max int) (int, float64, error) {
	tp, err := stripingTopology()
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: striping: %w", err)
	}
	sys, err := core.NewSystem(tp, core.Config{TimeScale: stripingTimeScale, Seed: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: striping: %w", err)
	}
	defer sys.Close()
	path, err := sys.Planner.Path(tp.MustHost("src"), tp.MustHost("dst"))
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: striping: %w", err)
	}
	n, bw := sys.Planner.SuggestStripes(path, max)
	return n, bw * 8 / 1e6, nil
}
