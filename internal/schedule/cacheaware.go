// Cache-aware planning: scoring a route by what a depot cache along it
// can serve. The cost model mirrors how a cached transfer actually runs
// (see core.TransferCached, which names its one caching depot by it):
// the cold fraction of the object crosses the whole path from the
// origin, then the cached remainder crosses only the hops downstream of
// the holding depot, so a cache pays only past the route's bottleneck.
package schedule

import (
	"math"

	"github.com/netlogistics/lsl/internal/graph"
)

// pathMaxCost is the minimax (bottleneck) per-byte cost of path on the
// last Replan's cost graph: the maximum edge cost along it, or +Inf
// when an edge is missing.
func (p *Planner) pathMaxCost(path []int) float64 {
	if p.g == nil || len(path) < 2 {
		return graph.Inf
	}
	var worst float64
	for k := 0; k+1 < len(path); k++ {
		c := p.g.Cost(graph.NodeID(path[k]), graph.NodeID(path[k+1]))
		if math.IsInf(c, 1) || c <= 0 {
			return graph.Inf
		}
		if c > worst {
			worst = c
		}
	}
	return worst
}

// EffectiveCost scores a path for a transfer whose object is partially
// cached on it. holders marks host indices whose depot cache holds the
// object's suffix; coldFrac is the fraction of the object the cache
// cannot supply (0 = full hit, 1 = fully cold). The score is the
// serial-phase transfer-time model: the cold fraction pays the whole
// path's bottleneck cost, the cached remainder pays only the bottleneck
// downstream of the last holder on the path. With no holder on the
// path the score reduces to the plain minimax cost. Lower is better;
// +Inf means the path is unusable.
func (p *Planner) EffectiveCost(path []int, holders map[int]bool, coldFrac float64) float64 {
	full := p.pathMaxCost(path)
	if math.IsInf(full, 1) {
		return graph.Inf
	}
	if coldFrac < 0 {
		coldFrac = 0
	}
	if coldFrac > 1 {
		coldFrac = 1
	}
	last := -1
	for i := 1; i < len(path)-1; i++ {
		if holders[path[i]] {
			last = i
		}
	}
	if last < 0 || coldFrac >= 1 {
		return full
	}
	warm := p.pathMaxCost(path[last:])
	if math.IsInf(warm, 1) {
		return graph.Inf
	}
	return coldFrac*full + (1-coldFrac)*warm
}
