package nws

import "math"

// window holds the most recent values of a series twice: in arrival
// order in a ring, and the newest width of them ascending in
// sort.Float64s order (NaNs first). An order statistic is then a read
// of sorted, and an update one copy between two positions instead of a
// sort per forecast. Reads give the same bits as sorting a copy, except
// that -0 and +0 compare equal, so which of the two a tie yields may
// differ.
type window struct {
	ring   []float64 // the newest len(ring) values, oldest at next once full
	next   int       // the slot the next push writes
	sorted []float64 // the newest min(width, pushes) values, as of the last push
	width  int       // ≥ 1, ≤ len(ring); may move between pushes
}

// newWindow keeps up to keep values, width ≤ keep of them sorted.
func newWindow(width, keep int) window {
	return window{ring: make([]float64, keep), sorted: make([]float64, 0, keep), width: width}
}

// push adds v. The oldest sorted values leave until v fits within
// width, so sorted holds the newest width values again even when width
// moved since the last push. When exactly one value leaves, v takes its
// place in a single copy: that is remove-then-insert, because an insert
// position j past the removed i means s[i] < v, so v lands at j-1.
func (w *window) push(v float64) {
	s := w.sorted
	for len(s) > w.width {
		i := find(s, w.back(len(s)-1))
		s = append(s[:i], s[i+1:]...)
	}
	if len(s) < w.width {
		j := find(s, v)
		s = append(s, 0)
		copy(s[j+1:], s[j:])
		s[j] = v
	} else if i, j := find(s, w.back(len(s)-1)), find(s, v); j > i {
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
	} else {
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
	w.sorted = s
	w.ring[w.next] = v
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
}

// back returns the value i places before the newest, i < len(ring).
func (w *window) back(i int) float64 {
	k := w.next - 1 - i
	if k < 0 {
		k += len(w.ring)
	}
	return w.ring[k]
}

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

// find returns the first index of sorted s not ordered before v in
// sort.Float64s's order. A linear scan: windows hold at most a few
// dozen values, and it mispredicts once, at its exit, where a binary
// search mispredicts at every step on noisy data.
func find(s []float64, v float64) int {
	i := 0
	for i < len(s) && (s[i] < v || (math.IsNaN(s[i]) && !math.IsNaN(v))) {
		i++
	}
	return i
}
