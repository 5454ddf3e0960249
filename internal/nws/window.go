package nws

import "math"

// window holds the most recent values of a series twice: in arrival
// order, and the newest width of them ascending in sort.Float64s order
// (NaNs first). An order statistic is then a read of sorted, and an
// update a binary search and a copy instead of a sort per forecast.
// Reads give the same bits as sorting a copy, except that -0 and +0
// compare equal, so which of the two a tie yields may differ.
type window struct {
	recent []float64 // oldest first, at most cap(recent) values
	sorted []float64 // the newest min(width, len(recent)) values, as of the last push
	width  int       // ≥ 1; may move between pushes
}

// newWindow keeps up to keep values, width ≤ keep of them sorted.
func newWindow(width, keep int) window {
	return window{recent: make([]float64, 0, keep), sorted: make([]float64, 0, keep), width: width}
}

// push appends v. The oldest sorted values leave until v fits within
// width, so sorted holds the newest width values again even when width
// moved since the last push.
func (w *window) push(v float64) {
	for len(w.sorted) >= w.width {
		w.sorted = remove(w.sorted, w.back(len(w.sorted)-1))
	}
	w.sorted = insert(w.sorted, v)
	if len(w.recent) == cap(w.recent) {
		w.recent = append(w.recent[:0], w.recent[1:]...)
	}
	w.recent = append(w.recent, v)
}

// back returns the value i places before the newest.
func (w *window) back(i int) float64 { return w.recent[len(w.recent)-1-i] }

// median is the middle of the sorted values (NaN when empty).
func (w *window) median() float64 {
	s, n := w.sorted, len(w.sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// less is sort.Float64s's order.
func less(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// search returns the first index of s not ordered before v.
func search(s []float64, v float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(s[m], v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func insert(s []float64, v float64) []float64 {
	i := search(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func remove(s []float64, v float64) []float64 {
	i := search(s, v)
	return append(s[:i], s[i+1:]...)
}
