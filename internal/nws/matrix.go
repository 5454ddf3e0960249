package nws

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Monitor maintains one forecast series per ordered host pair and
// produces the fully connected bandwidth matrix the scheduler consumes.
// It is the reproduction of the paper's "performance matrix ...
// generated from Network Weather Service forecasts".
//
// Each pair's series is its own state: distinct pairs may be observed
// concurrently, the same pair may not, and no read (Forecast, Snapshot,
// MeanRelativeError) may overlap an Observe.
type Monitor struct {
	hosts   []string
	index   map[string]int
	series  []*Selector // row-major n×n, diagonal unused
	mkBank  func() []Forecaster
	updates atomic.Int64
}

// NewMonitor returns a monitor over the given host names. mkBank, when
// non-nil, constructs the expert bank for each pair (defaults to
// DefaultBank).
func NewMonitor(hosts []string, mkBank func() []Forecaster) (*Monitor, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("nws: need at least 2 hosts, got %d", len(hosts))
	}
	m := &Monitor{
		hosts:  append([]string(nil), hosts...),
		index:  make(map[string]int, len(hosts)),
		series: make([]*Selector, len(hosts)*len(hosts)),
		mkBank: mkBank,
	}
	for i, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("nws: empty host name at index %d", i)
		}
		if _, dup := m.index[h]; dup {
			return nil, fmt.Errorf("nws: duplicate host %q", h)
		}
		m.index[h] = i
	}
	return m, nil
}

// Hosts returns the monitored host names in index order.
func (m *Monitor) Hosts() []string { return append([]string(nil), m.hosts...) }

// Updates reports the total number of observations recorded.
func (m *Monitor) Updates() int { return int(m.updates.Load()) }

func (m *Monitor) selector(src, dst int) *Selector {
	idx := src*len(m.hosts) + dst
	if m.series[idx] == nil {
		if m.mkBank != nil {
			m.series[idx] = NewSelector(m.mkBank()...)
		} else {
			m.series[idx] = NewSelector()
		}
	}
	return m.series[idx]
}

// Observe records a bandwidth measurement (bytes/sec) for the ordered
// pair src→dst. Negative and non-finite readings are rejected: one +Inf
// would leave every expert that saw it at infinite error for good.
func (m *Monitor) Observe(src, dst string, bw float64) error {
	si, ok := m.index[src]
	if !ok {
		return fmt.Errorf("nws: unknown host %q", src)
	}
	di, ok := m.index[dst]
	if !ok {
		return fmt.Errorf("nws: unknown host %q", dst)
	}
	if si == di {
		return fmt.Errorf("nws: self-measurement for %q", src)
	}
	if bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
		return fmt.Errorf("nws: invalid bandwidth %v for %s→%s", bw, src, dst)
	}
	m.selector(si, di).Update(bw)
	m.updates.Add(1)
	return nil
}

// Forecast returns the predicted bandwidth src→dst, or NaN when the
// pair has never been measured.
func (m *Monitor) Forecast(src, dst string) float64 {
	si, ok1 := m.index[src]
	di, ok2 := m.index[dst]
	if !ok1 || !ok2 || si == di {
		return math.NaN()
	}
	s := m.series[si*len(m.hosts)+di]
	if s == nil {
		return math.NaN()
	}
	return s.Forecast()
}

// Matrix is a snapshot of forecast bandwidths: BW[i][j] is the
// predicted bytes/sec from host i to host j (NaN when unknown).
type Matrix struct {
	Hosts []string
	BW    [][]float64
}

// Snapshot produces the forecast matrix for the scheduler. Its rows
// are filled on GOMAXPROCS workers, each row by one of them.
func (m *Monitor) Snapshot() Matrix {
	n := len(m.hosts)
	bw := make([][]float64, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				bw[i] = make([]float64, n)
				for j, s := range m.series[i*n : i*n+n] {
					switch {
					case i == j:
						bw[i][j] = math.Inf(1)
					case s == nil:
						bw[i][j] = math.NaN()
					default:
						bw[i][j] = s.Forecast()
					}
				}
			}
		}()
	}
	wg.Wait()
	return Matrix{Hosts: append([]string(nil), m.hosts...), BW: bw}
}

// MeanRelativeError averages forecast MAE divided by forecast magnitude
// across all measured pairs — the system-wide automatic ε candidate.
// It returns NaN when no pair has enough history.
func (m *Monitor) MeanRelativeError() float64 {
	var sum float64
	var n int
	for i := range m.hosts {
		for j := range m.hosts {
			if i == j {
				continue
			}
			s := m.series[i*len(m.hosts)+j]
			if s == nil {
				continue
			}
			mae := s.MAE()
			f := s.Forecast()
			if math.IsNaN(mae) || math.IsNaN(f) || f <= 0 {
				continue
			}
			sum += mae / f
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AggregateBySite collapses the host matrix to a site matrix by
// averaging the finite host-pair forecasts between each pair of sites,
// following the clique-aggregation idea of the Swany & Wolski
// "performance topologies" work the paper builds on. siteOf maps host
// name to site name.
func (mx Matrix) AggregateBySite(siteOf func(host string) string) Matrix {
	type pair struct{ a, b string }
	sums := make(map[pair]float64)
	counts := make(map[pair]int)
	siteSet := make(map[string]bool)
	for i, hi := range mx.Hosts {
		for j, hj := range mx.Hosts {
			if i == j {
				continue
			}
			si, sj := siteOf(hi), siteOf(hj)
			siteSet[si] = true
			siteSet[sj] = true
			if si == sj {
				continue
			}
			v := mx.BW[i][j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			p := pair{si, sj}
			sums[p] += v
			counts[p]++
		}
	}
	sites := make([]string, 0, len(siteSet))
	for s := range siteSet {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	idx := make(map[string]int, len(sites))
	for i, s := range sites {
		idx[s] = i
	}
	bw := make([][]float64, len(sites))
	for i := range bw {
		bw[i] = make([]float64, len(sites))
		for j := range bw[i] {
			if i == j {
				bw[i][j] = math.Inf(1)
			} else {
				bw[i][j] = math.NaN()
			}
		}
	}
	for p, sum := range sums {
		bw[idx[p.a]][idx[p.b]] = sum / float64(counts[p])
	}
	return Matrix{Hosts: sites, BW: bw}
}

// String renders the matrix compactly in MB/s.
func (mx Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "")
	for _, h := range mx.Hosts {
		fmt.Fprintf(&b, " %12s", truncate(h, 12))
	}
	b.WriteByte('\n')
	for i, h := range mx.Hosts {
		fmt.Fprintf(&b, "%-18s", truncate(h, 18))
		for j := range mx.Hosts {
			v := mx.BW[i][j]
			switch {
			case i == j:
				fmt.Fprintf(&b, " %12s", "-")
			case math.IsNaN(v):
				fmt.Fprintf(&b, " %12s", "?")
			default:
				fmt.Fprintf(&b, " %12.2f", v/1e6)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
