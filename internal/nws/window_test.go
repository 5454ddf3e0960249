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
