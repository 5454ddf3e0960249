package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/loadgen"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/workload"
)

// FairnessConfig parameterizes the weighted fair-sharing experiment.
type FairnessConfig struct {
	Seed int64
	// Sessions run concurrently through the shared depot (default 9,
	// three per weight class).
	Sessions int
	// Size is the weight-1 transfer size; a weight-w session moves w×
	// this, so under perfect proportional sharing every session finishes
	// together and measured bandwidth ratios equal the weight ratios.
	Size int64
	// Weights are the competing classes (default 4, 2, 1).
	Weights []uint16
}

// fairnessTrunkRate is the shared depot's scheduled downstream
// capacity in wall-clock bytes per second. The emulation runs at the
// striping sweep's time scale, whose topology this experiment reuses.
const fairnessTrunkRate = 16 << 20

// DefaultFairness returns the configuration behind EXPERIMENTS.md's
// fairness table.
func DefaultFairness() FairnessConfig {
	return FairnessConfig{
		Seed:     1,
		Sessions: 9,
		Size:     1 << 20,
		Weights:  []uint16{4, 2, 1},
	}
}

// FairnessResult is the measured outcome of one fairness run.
type FairnessResult struct {
	Report loadgen.Report
	// PerWeight is each weight class's mean throughput (bytes per
	// emulated second).
	PerWeight map[uint16]float64
	// NormalizedJain is Jain's index over weight-normalized per-session
	// throughput: 1.0 means every session got exactly its proportional
	// share.
	NormalizedJain float64
}

// Fairness runs concurrent mixed-weight sessions through one
// fair-share-scheduled depot — the striping sweep's window-limited
// relay topology, with the relay's trunk arbitrated by weighted DRR —
// and reports how closely the measured split tracks the weights.
func Fairness(cfg FairnessConfig) (*FairnessResult, error) {
	def := DefaultFairness()
	if cfg.Sessions <= 0 {
		cfg.Sessions = def.Sessions
	}
	if cfg.Size <= 0 {
		cfg.Size = def.Size
	}
	if len(cfg.Weights) == 0 {
		cfg.Weights = def.Weights
	}
	tp, err := stripingTopology()
	if err != nil {
		return nil, fmt.Errorf("experiments: fairness: %w", err)
	}
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale: stripingTimeScale,
		Seed:      cfg.Seed,
		Metrics:   obs.NewRegistry(),
		FairShare: &fairshare.Config{Rate: fairnessTrunkRate},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fairness: %w", err)
	}
	defer sys.Close()

	// Size rides with weight so proportional shares mean simultaneous
	// completion: a weight-4 session moves 4× the weight-1 payload.
	sizes := make([]int64, len(cfg.Weights))
	for i, w := range cfg.Weights {
		sizes[i] = cfg.Size * int64(w)
	}
	rep := loadgen.Run(sys, loadgen.Config{
		Sessions: cfg.Sessions,
		Sizes:    sizes,
		Weights:  cfg.Weights,
		Pairs:    [][2]string{{"src", "dst"}},
		Seed:     cfg.Seed,
	})
	if rep.Failed > 0 {
		return nil, fmt.Errorf("experiments: fairness: %d of %d sessions failed", rep.Failed, len(rep.Sessions))
	}

	var normalized []float64
	for _, s := range rep.Sessions {
		if s.Err == nil && s.Weight > 0 {
			normalized = append(normalized, s.Bandwidth/float64(s.Weight))
		}
	}
	return &FairnessResult{
		Report:         rep,
		PerWeight:      rep.ByWeight(),
		NormalizedJain: stats.JainIndex(normalized),
	}, nil
}

// fairnessTable renders the per-weight table and fairness indices.
func fairnessTable(r *FairnessResult) Table {
	t := Table{
		Title: "Fairness: mixed-weight sessions through one scheduled depot trunk",
		Columns: []Column{
			{"weight", "%8d", "weight", "%d"},
			{"sessions", "%10d", "sessions", "%d"},
			{"mean MB/s", "%16.2f", "mean_MBps", "%.4f"},
			{"per-unit MB/s", "%16.2f", "per_unit_MBps", "%.4f"},
		},
		Notes: []string{
			fmt.Sprintf("Jain index: %.3f raw, %.3f weight-normalized (1.0 = exact proportional split)",
				r.Report.Jain, r.NormalizedJain),
			fmt.Sprintf("completion latency (emulated): p50 %v  p95 %v  p99 %v",
				r.Report.P50.Round(time.Millisecond), r.Report.P95.Round(time.Millisecond),
				r.Report.P99.Round(time.Millisecond)),
		},
	}
	ws := make([]int, 0, len(r.PerWeight))
	for w := range r.PerWeight {
		ws = append(ws, int(w))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ws)))
	for _, wi := range ws {
		w := uint16(wi)
		n := 0
		for _, s := range r.Report.Sessions {
			if s.Err == nil && s.Weight == w {
				n++
			}
		}
		mean := r.PerWeight[w]
		t.Rows = append(t.Rows, []any{w, n, mean / 1e6, mean / float64(w) / 1e6})
	}
	return t
}

// LoadgenConfig parameterizes the mesh load / soak harness run.
type LoadgenConfig struct {
	Seed     int64
	Sessions int
	// Arrival paces launches (nil = closed load, everything at once).
	Arrival workload.ArrivalProcess
	// Reliable routes transfers through retry + failover.
	Reliable bool
	// MaxSessions/QueueDepth configure every depot's admission control
	// so an aggressive load exercises queueing (0 = unlimited).
	MaxSessions int
	QueueDepth  int
}

// loadgenTimeScale compresses the mesh load's emulated time.
const loadgenTimeScale = 0.0005

// DefaultLoadgen drives 200 mixed-size, mixed-weight sessions over the
// paper's two-path testbed with bounded depot admission. A 32-session
// cap sits just under the closed load's natural concurrency, so the
// admission queue engages without refusing anyone.
func DefaultLoadgen() LoadgenConfig {
	return LoadgenConfig{
		Seed:        1,
		Sessions:    200,
		MaxSessions: 32,
		QueueDepth:  64,
	}
}

// Loadgen runs the mesh load harness over the two-path testbed —
// work-conserving fair sharing on every depot, bounded admission — and
// renders the report plus the depots' admission counters; the CSV
// carries one record per session.
func Loadgen(cfg LoadgenConfig) (Table, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = DefaultLoadgen().Sessions
	}
	tp := topo.TwoPath()
	reg := obs.NewRegistry()
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale:   loadgenTimeScale,
		Seed:        cfg.Seed,
		Metrics:     reg,
		FairShare:   &fairshare.Config{},
		MaxSessions: cfg.MaxSessions,
		QueueDepth:  cfg.QueueDepth,
	})
	if err != nil {
		return Table{}, fmt.Errorf("experiments: loadgen: %w", err)
	}
	defer sys.Close()

	// Four weights against the three default sizes: coprime cycles, so
	// every weight class sees every transfer size instead of the
	// by-weight means aliasing the size mix.
	rep := loadgen.Run(sys, loadgen.Config{
		Sessions: cfg.Sessions,
		Weights:  []uint16{1, 2, 4, 8},
		Arrival:  cfg.Arrival,
		Reliable: cfg.Reliable,
		Seed:     cfg.Seed,
	})
	t := Table{
		Title: "Loadgen: mesh load over the two-path testbed\n" + strings.TrimSuffix(rep.String(), "\n"),
		Columns: []Column{
			{Name: "session", CSV: "%d"},
			{Name: "src", CSV: "%s"},
			{Name: "dst", CSV: "%s"},
			{Name: "weight", CSV: "%d"},
			{Name: "size", CSV: "%d"},
			{Name: "elapsed_s", CSV: "%.6f"},
			{Name: "bandwidth_Bps", CSV: "%.0f"},
			{Name: "ok", CSV: "%t"},
		},
		Notes: []string{fmt.Sprintf("admission: %d sessions queued, %d queue timeouts",
			reg.Counter(depot.MetricAdmissionQueued).Value(),
			reg.Counter(depot.MetricAdmissionTimeouts).Value())},
	}
	for _, s := range rep.Sessions {
		t.Rows = append(t.Rows, []any{s.Index, s.Src, s.Dst, s.Weight, s.Size, s.Elapsed.Seconds(), s.Bandwidth, s.Err == nil})
	}
	return t, nil
}
