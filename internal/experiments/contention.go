package experiments

import (
	"github.com/netlogistics/lsl/internal/netsim"
	"github.com/netlogistics/lsl/internal/pipesim"
	"github.com/netlogistics/lsl/internal/simtime"
	"github.com/netlogistics/lsl/internal/tcpsim"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/trace"
)

// ContentionRow summarizes one concurrency level at a shared depot.
type ContentionRow struct {
	Sessions    int
	PerSession  float64 // mean per-session bandwidth, bytes/sec
	Aggregate   float64 // total bytes moved / wall time
	DirectEach  float64 // what each session would get going direct
	MeanSpeedup float64 // per-session bandwidth vs direct
}

// ContentionSweep answers the paper's closing question — "we must
// consider the scalability of host-based forwarding" — by pushing k
// concurrent sessions through one depot whose forwarding engine is a
// shared resource. Per-session relayed bandwidth decays as the depot
// saturates, and past the crossover the direct path wins again.
func ContentionSweep(seed int64, levels []int) ([]ContentionRow, error) {
	if len(levels) == 0 {
		levels = []int{1, 2, 4, 8, 16}
	}
	const (
		size        = 8 << 20
		forwardRate = 6e6 // the depot host's total forwarding capacity
		window      = 64 << 10
	)
	full := tcpsim.Config{
		RTT:      simtime.Milliseconds(80),
		Capacity: 100e6,
		SndBuf:   window,
		RcvBuf:   window,
	}
	half := full
	half.RTT = simtime.Milliseconds(40)

	// Direct baseline: each session gets the window-limited rate; the
	// endpoints, not a shared middle, are the constraint.
	eng := netsim.New(seed)
	res, err := pipesim.Run(eng, pipesim.Direct(size, "direct", full))
	if err != nil {
		return nil, err
	}
	direct := res.Bandwidth

	rows := make([]ContentionRow, 0, len(levels))
	for _, k := range levels {
		shared := tcpsim.NewSharedLink(forwardRate)
		chains := make([]pipesim.Chain, k)
		for i := range chains {
			in := half
			out := half
			// Every byte crosses the depot host twice; both sublinks
			// contend for its forwarding engine.
			in.Shared = shared
			out.Shared = shared
			chains[i] = pipesim.Chain{
				Size:   size,
				Hops:   []pipesim.Hop{{TCP: in}, {TCP: out}},
				Depots: []pipesim.Depot{{}},
			}
		}
		results, span, err := makespan(chains, seed)
		if err != nil {
			return nil, err
		}
		var per float64
		for _, r := range results {
			per += r.Bandwidth
		}
		per /= float64(k)
		rows = append(rows, ContentionRow{
			Sessions:    k,
			PerSession:  per,
			Aggregate:   float64(k) * size / span,
			DirectEach:  direct,
			MeanSpeedup: per / direct,
		})
	}
	return rows, nil
}

// contentionTable renders the sweep.
func contentionTable(rows []ContentionRow) Table {
	return tableOf("Ablation: depot forwarding contention (8MB sessions, 6MB/s depot host)", []Column{
		{"sessions", "%9d", "sessions", "%d"},
		{"per-sess Mbit/s", "%16.2f", "per_session_mbit", "%.4f"},
		{"aggregate Mbit/s", "%16.2f", "aggregate_mbit", "%.4f"},
		{"direct Mbit/s", "%16.2f", "direct_mbit", "%.4f"},
		{"speedup", "%8.2fx", "speedup", "%.4f"},
	}, rows, func(r ContentionRow) []any {
		return []any{r.Sessions, mbit(r.PerSession), mbit(r.Aggregate), mbit(r.DirectEach), r.MeanSpeedup}
	})
}

// CwndTraces captures congestion-window sawtooths for the direct path
// and the two sublinks of the Figure 3 transfer, the mechanism-level
// view of why splitting the control loop helps: the long path's
// recovery is slow (shallow sawtooth ramps), the short sublinks' is
// fast.
func CwndTraces(seed int64, size int64) (direct, sub1, sub2 *trace.Series, err error) {
	if size <= 0 {
		size = 32 << 20
	}
	tp := topo.TwoPath()
	ucsb, hou, uf := tp.MustHost(topo.UCSB), tp.MustHost(topo.Houston), tp.MustHost(topo.UF)
	eng := netsim.New(seed)

	capture := func(c *tcpsim.Conn, s *trace.Series) {
		c.OnCwnd = func(now simtime.Time, cwnd float64) {
			s.Observe(now, int64(cwnd))
		}
	}

	direct = trace.NewSeries("direct-cwnd")
	src := tcpsim.NewByteSource(size)
	dst := tcpsim.NewCountSink()
	dc := tcpsim.New(eng, "direct", tp.PathConfig(ucsb, uf), src, dst)
	capture(dc, direct)
	dc.Start(0)
	if _, err = eng.RunAll(); err != nil {
		return nil, nil, nil, err
	}

	// The relayed chain, hand-wired so the per-sublink cwnd hooks can
	// be attached (pipesim owns its connections).
	eng = netsim.New(seed)
	sub1 = trace.NewSeries("sublink1-cwnd")
	sub2 = trace.NewSeries("sublink2-cwnd")
	buf := &cwndBuffer{}
	first := tp.PathConfig(ucsb, hou)
	c1 := tcpsim.New(eng, "s1", first, tcpsim.NewByteSource(size), buf)
	c2 := tcpsim.New(eng, "s2", tp.PathConfig(hou, uf), buf, tcpsim.NewCountSink())
	buf.producer, buf.consumer = c1, c2
	c1.OnDone = func(simtime.Time) { buf.closed = true; c2.Wake() }
	capture(c1, sub1)
	capture(c2, sub2)
	c1.Start(0)
	c2.Start(simtime.Time(1.5 * float64(first.RTT)))
	if _, err = eng.RunAll(); err != nil {
		return nil, nil, nil, err
	}
	return direct, sub1, sub2, nil
}

// cwndBuffer is a minimal unbounded depot buffer for the hand-wired
// cwnd-trace chain.
type cwndBuffer struct {
	occ                int64
	closed             bool
	producer, consumer *tcpsim.Conn
}

func (b *cwndBuffer) Free() int64 { return 32<<20 - b.occ }
func (b *cwndBuffer) Put(n int64) {
	b.occ += n
	if b.consumer != nil {
		b.consumer.Wake()
	}
}
func (b *cwndBuffer) Available() int64 { return b.occ }
func (b *cwndBuffer) Take(n int64) {
	b.occ -= n
	if b.producer != nil {
		b.producer.Wake()
	}
}
func (b *cwndBuffer) Exhausted() bool { return b.closed && b.occ == 0 }

// cwndTable renders the three sawtooths on a common grid, cwnd in KB.
func cwndTable(direct, sub1, sub2 *trace.Series) Table {
	t := Table{
		Title: "Congestion-window traces (KB): the split control loops recover faster",
		Columns: []Column{
			{"time(s)", "%8.2f", "time_s", "%.4f"},
			{"direct", "%14.1f", "direct_kb", "%.2f"},
			{"sublink1", "%14.1f", "sublink1_kb", "%.2f"},
			{"sublink2", "%14.1f", "sublink2_kb", "%.2f"},
		},
	}
	var end simtime.Time
	for _, s := range []*trace.Series{direct, sub1, sub2} {
		if f := s.Final().At; f > end {
			end = f
		}
	}
	const n = 30
	for i := 0; i <= n; i++ {
		ts := simtime.Time(end.Seconds() * float64(i) / n)
		t.Rows = append(t.Rows, []any{ts.Seconds(),
			float64(direct.AckedAt(ts)) / 1024,
			float64(sub1.AckedAt(ts)) / 1024,
			float64(sub2.AckedAt(ts)) / 1024})
	}
	return t
}
