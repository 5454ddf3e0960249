package nws

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The windowed experts keep their windows sorted incrementally. These
// references are the sort-a-copy-per-forecast implementations they
// replaced; the windowed experts must match them bit for bit.

type refSlidingMedian struct {
	w   int
	buf []float64
}

func (f *refSlidingMedian) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

func (f *refSlidingMedian) Forecast() float64 { return sortedMedian(f.buf) }

func sortedMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

type refTrimmedMean struct {
	w    int
	trim float64
	buf  []float64
}

func (f *refTrimmedMean) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

func (f *refTrimmedMean) Forecast() float64 {
	n := len(f.buf)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), f.buf...)
	sort.Float64s(sorted)
	cut := int(float64(n) * f.trim)
	kept := sorted[cut : n-cut]
	if len(kept) == 0 {
		kept = sorted
	}
	var sum float64
	for _, x := range kept {
		sum += x
	}
	return sum / float64(len(kept))
}

type refAdaptiveMedian struct {
	minW, maxW, w int
	buf           []float64
	recentErr     []float64
	scaleSum      float64
	n             int
}

func (f *refAdaptiveMedian) Update(v float64) {
	if p := f.Forecast(); !math.IsNaN(p) {
		f.recentErr = append(f.recentErr, math.Abs(p-v))
		if len(f.recentErr) > 8 {
			f.recentErr = f.recentErr[1:]
		}
		f.adapt()
	}
	f.buf = append(f.buf, v)
	if len(f.buf) > f.maxW {
		f.buf = f.buf[1:]
	}
	f.scaleSum += math.Abs(v)
	f.n++
}

func (f *refAdaptiveMedian) adapt() {
	if len(f.recentErr) < 4 || f.n == 0 {
		return
	}
	var errSum float64
	for _, e := range f.recentErr {
		errSum += e
	}
	meanErr := errSum / float64(len(f.recentErr))
	scale := f.scaleSum / float64(f.n)
	if scale <= 0 {
		return
	}
	switch rel := meanErr / scale; {
	case rel > 0.15 && f.w > f.minW:
		f.w--
	case rel < 0.05 && f.w < f.maxW:
		f.w++
	}
}

func (f *refAdaptiveMedian) Forecast() float64 {
	w := f.w
	if w > len(f.buf) {
		w = len(f.buf)
	}
	return sortedMedian(f.buf[len(f.buf)-w:])
}

// pairUnderTest is one windowed expert beside its reference.
type pairUnderTest struct {
	name string
	got  Forecaster
	want interface {
		Update(float64)
		Forecast() float64
	}
}

func windowedPairs() []pairUnderTest {
	var ps []pairUnderTest
	for _, w := range []int{1, 2, 5, 20} {
		ps = append(ps, pairUnderTest{fmt.Sprint("median", w), NewSlidingMedian(w), &refSlidingMedian{w: w}})
	}
	for _, c := range []struct {
		w    int
		trim float64
	}{{1, 0}, {4, 0.4}, {7, 0.1}, {15, 0.2}} {
		ps = append(ps, pairUnderTest{fmt.Sprint("tmean", c.w, c.trim), NewTrimmedMean(c.w, c.trim), &refTrimmedMean{w: c.w, trim: c.trim}})
	}
	for _, c := range [][2]int{{1, 1}, {2, 20}, {3, 30}, {5, 6}} {
		ps = append(ps, pairUnderTest{fmt.Sprint("amedian", c), NewAdaptiveMedian(c[0], c[1]),
			&refAdaptiveMedian{minW: c[0], maxW: c[1], w: (c[0] + c[1]) / 2}})
	}
	return ps
}

// series draws one measurement series of a given kind: few distinct
// values (ties), a stable level (adaptive windows grow to their maximum),
// violent level shifts (they shrink to their minimum), noise with +Inf
// spikes, or plain noise. Values are non-negative as the Monitor
// requires; -0 is left out because it compares equal to +0 and the
// reference's pick between the two is an artifact of its sort.
func series(rng *rand.Rand, kind, n int) []float64 {
	xs := make([]float64, n)
	level := 1 + rng.Float64()*100
	for i := range xs {
		switch kind {
		case 0:
			xs[i] = []float64{0, 1, 2, 2, 5, 1e6}[rng.Intn(6)]
		case 1:
			xs[i] = level
			if rng.Intn(50) == 0 {
				xs[i] = level * (1 + 0.01*rng.Float64())
			}
		case 2:
			xs[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(6)))
		case 3:
			xs[i] = level * (0.5 + rng.Float64())
			if rng.Intn(10) == 0 {
				xs[i] = math.Inf(1)
			}
		default:
			xs[i] = level * (0.8 + 0.4*rng.Float64())
		}
	}
	return xs
}

func TestWindowedExpertsMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const runs = 500
	grewToMax, shrankToMin := false, false
	for run := 0; run < runs; run++ {
		kind := run % 5
		ps := windowedPairs()
		for i, v := range series(rng, kind, 50+rng.Intn(250)) {
			for _, p := range ps {
				p.got.Update(v)
				p.want.Update(v)
				got, want := p.got.Forecast(), p.want.Forecast()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("run %d (kind %d) sample %d %s: forecast %v (%#x), reference %v (%#x)",
						run, kind, i, p.name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if a, ok := p.got.(*AdaptiveMedian); ok {
					ref := p.want.(*refAdaptiveMedian)
					if a.Window() != ref.w {
						t.Fatalf("run %d sample %d %s: window %d, reference %d", run, i, p.name, a.Window(), ref.w)
					}
					if ref.maxW == 30 {
						grewToMax = grewToMax || ref.w == ref.maxW
						shrankToMin = shrankToMin || ref.w == ref.minW
					}
				}
			}
		}
	}
	if !grewToMax || !shrankToMin {
		t.Fatalf("adaptive window never reached a bound (max %v, min %v): the series do not exercise resizing", grewToMax, shrankToMin)
	}
}

// A NaN fed straight to an expert (the Monitor rejects it) must not
// panic, and ordering it as sort.Float64s does keeps the forecasts
// those of the reference.
func TestWindowedExpertsSurviveNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := windowedPairs()
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		if rng.Intn(4) == 0 {
			v = math.NaN()
		}
		for _, p := range ps {
			p.got.Update(v)
			p.want.Update(v)
			got, want := p.got.Forecast(), p.want.Forecast()
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("sample %d %s: forecast %v, reference %v", i, p.name, got, want)
			}
		}
	}
}

func TestWarmObserveDoesNotAllocate(t *testing.T) {
	m, err := NewMonitor([]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if err := m.Observe("a", "b", 100*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := m.Observe("a", "b", 100*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Observe allocates %v times per call, want 0", allocs)
	}
}

// refWindow is the window the ring replaced: arrival order in a slice
// that shifts on every push, and a remove then an insert, each found by
// binary search, per value that leaves. The ring and the one-copy
// replacement must leave sorted exactly as it did, bit for bit,
// including which of -0 and +0 sits where.
type refWindow struct {
	recent, sorted []float64
	keep, width    int
}

func (w *refWindow) push(v float64) {
	for len(w.sorted) >= w.width {
		w.sorted = refRemove(w.sorted, w.recent[len(w.recent)-len(w.sorted)])
	}
	w.sorted = refInsert(w.sorted, v)
	if len(w.recent) == w.keep {
		w.recent = append(w.recent[:0], w.recent[1:]...)
	}
	w.recent = append(w.recent, v)
}

func refSearch(s []float64, v float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < v || (math.IsNaN(s[m]) && !math.IsNaN(v)) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func refInsert(s []float64, v float64) []float64 {
	i := refSearch(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func refRemove(s []float64, v float64) []float64 {
	i := refSearch(s, v)
	return append(s[:i], s[i+1:]...)
}

// TestWindowMatchesRemoveInsertReference drives the window and its
// reference through long runs (the ring wraps hundreds of times) whose
// width wanders by one step as AdaptiveMedian's does, over values drawn
// from tiny alphabets: duplicates everywhere, a leaving value often
// equal to the new one, and -0 beside +0.
func TestWindowMatchesRemoveInsertReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	negZero := math.Copysign(0, -1)
	alphabets := [][]float64{
		{0, negZero},
		{negZero, 0, 1, 1, 2},
		{3, 3, 3, 7},
		{negZero, 0, 0.5, math.Inf(1), 1e9},
		{math.NaN(), 0, negZero, 1},
	}
	for run := 0; run < 200; run++ {
		alpha := alphabets[run%len(alphabets)]
		keep := 1 + rng.Intn(30)
		width := 1 + rng.Intn(keep)
		got, want := newWindow(width, keep), &refWindow{keep: keep, width: width}
		for i := 0; i < 20*keep+rng.Intn(500); i++ {
			if rng.Intn(3) == 0 {
				width = min(max(width+rng.Intn(3)-1, 1), keep)
				got.width, want.width = width, width
			}
			v := alpha[rng.Intn(len(alpha))]
			if rng.Intn(4) == 0 && len(want.recent) >= width {
				v = want.recent[len(want.recent)-width] // the value that leaves
			}
			got.push(v)
			want.push(v)
			if len(got.sorted) != len(want.sorted) {
				t.Fatalf("run %d push %d: %d sorted values, reference %d", run, i, len(got.sorted), len(want.sorted))
			}
			for k := range got.sorted {
				if math.Float64bits(got.sorted[k]) != math.Float64bits(want.sorted[k]) {
					t.Fatalf("run %d push %d (keep %d width %d): sorted %v, reference %v", run, i, keep, width, got.sorted, want.sorted)
				}
			}
			for k := 0; k < len(want.sorted); k++ {
				if g, w := got.back(k), want.recent[len(want.recent)-1-k]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("run %d push %d: back(%d) = %v, reference %v", run, i, k, g, w)
				}
			}
		}
	}
}

// BenchmarkObserveSweep142 observes every ordered pair of 142 hosts
// round-robin, the order a control round feeds them: each Observe finds
// its pair's windows cold in cache, which a hot-pair loop hides.
func BenchmarkObserveSweep142(b *testing.B) {
	hosts := make([]string, 142)
	for i := range hosts {
		hosts[i] = fmt.Sprint("h", i)
	}
	m, err := NewMonitor(hosts, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sweep := func() {
		for _, src := range hosts {
			for _, dst := range hosts {
				if src != dst {
					if err := m.Observe(src, dst, 1e6*(0.5+rng.Float64())); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	for i := 0; i < 30; i++ { // every window full
		sweep()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hosts)*(len(hosts)-1)), "ns/observe")
}
