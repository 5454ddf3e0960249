package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// Metric names reported by the transfer façade into Config.Metrics.
const (
	MetricTransfers       = "core_transfers_total"
	MetricTransferErrors  = "core_transfer_errors_total"
	MetricTransferBytes   = "core_transfer_bytes_total"
	MetricTransferSeconds = "core_transfer_seconds"
	MetricTransferMbps    = "core_transfer_mbps"
)

// observed records a completed (or failed) transfer in the system's
// registry and returns it, or the zero result with err. Durations and
// rates are in emulated time, like TransferResult itself.
func (s *System) observed(res TransferResult, err error) (TransferResult, error) {
	r := s.cfg.Metrics
	if err != nil {
		r.Counter(MetricTransferErrors).Inc()
		return TransferResult{}, err
	}
	r.Counter(MetricTransfers).Inc()
	r.Counter(MetricTransferBytes).Add(res.Bytes)
	// 1 ms .. ~1000 s emulated transfer durations.
	r.Histogram(MetricTransferSeconds, obs.ExpBuckets(1e-3, 2, 20)).Observe(res.Elapsed.Seconds())
	// 1 .. ~16k Mbit/s end-to-end rates.
	r.Histogram(MetricTransferMbps, obs.ExpBuckets(1, 2, 15)).Observe(res.Bandwidth * 8 / 1e6)
	return res, nil
}

// mintTrace draws the end-to-end trace identifier of one logical
// transfer. Tracing is best-effort: an entropy failure yields the zero
// id (no correlation key) rather than failing the transfer.
func mintTrace() wire.TraceID {
	tid, err := wire.NewTraceID()
	if err != nil {
		return wire.TraceID{}
	}
	return tid
}

// TransferResult reports one completed transfer.
type TransferResult struct {
	Bytes int64
	// Elapsed is in emulated time (wall time divided by the time
	// scale).
	Elapsed time.Duration
	// Bandwidth is bytes per emulated second.
	Bandwidth float64
	// Path is the hostname sequence the session traversed (endpoints
	// included).
	Path []string
}

// dialerFor returns the Dialer that originates connections from host i.
func (s *System) dialerFor(i int) lsl.Dialer {
	return lsl.DialerFunc(func(address string) (net.Conn, error) {
		return s.Net.Dial(s.hostAddr(i), address)
	})
}

// resolve maps a host name to its index.
func (s *System) resolve(host string) (int, error) {
	i, ok := s.Topo.HostIndex(host)
	if !ok {
		return 0, fmt.Errorf("core: unknown host %q", host)
	}
	return i, nil
}

// pair resolves two host names.
func (s *System) pair(a, b string) (i, j int, err error) {
	if i, err = s.resolve(a); err == nil {
		j, err = s.resolve(b)
	}
	return
}

// Transfer moves size bytes from srcHost to dstHost over the planner's
// chosen path (which may be direct), waiting until the sink has
// received and verified every byte.
func (s *System) Transfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.single(path, Route{Via: s.route(path)}, size)
}

// TransferWeighted is Transfer with an explicit fair-share weight: the
// session carries wire.OptSessionWeight, so every scheduled depot on
// the path grants it weight× the per-round credit of a weight-1
// session. On an unscheduled deployment the option rides along inert.
func (s *System) TransferWeighted(srcHost, dstHost string, size int64, weight uint16) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.single(path, Route{Via: s.route(path)}, size, wire.SessionWeightOption(weight))
}

// DirectTransfer bypasses the scheduler and moves the bytes over the
// single end-to-end connection, the baseline of every comparison.
func (s *System) DirectTransfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	si, di, err := s.pair(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.single([]int{si, di}, Route{}, size)
}

// plan resolves both hosts and returns their indexes and the
// planner's path between them (nil when it forecasts none).
func (s *System) plan(srcHost, dstHost string) (si, di int, path []int, err error) {
	if si, di, err = s.pair(srcHost, dstHost); err != nil {
		return
	}
	if si == di {
		return si, di, nil, fmt.Errorf("core: %s is both source and destination", srcHost)
	}
	path, err = s.Planner.Path(si, di)
	return
}

// plannedRoute is plan failing when the planner forecasts no path.
func (s *System) plannedRoute(srcHost, dstHost string) ([]int, error) {
	_, _, path, err := s.plan(srcHost, dstHost)
	if err == nil && path == nil {
		err = fmt.Errorf("core: no route %s → %s", srcHost, dstHost)
	}
	return path, err
}

// routeOrDirect is plan degrading to the direct path when the planner
// forecasts none: a recovering transfer's job is delivery, not
// refusal.
func (s *System) routeOrDirect(srcHost, dstHost string) ([]int, error) {
	si, di, path, err := s.plan(srcHost, dstHost)
	if err == nil && path == nil {
		path = []int{si, di}
	}
	return path, err
}

// PlannedPath reports the host names on the planner's current route.
func (s *System) PlannedPath(srcHost, dstHost string) ([]string, error) {
	_, _, path, err := s.plan(srcHost, dstHost)
	if err != nil {
		return nil, err
	}
	return s.hostNames(path), nil
}

func (s *System) hostNames(path []int) []string {
	names := make([]string, len(path))
	for k, h := range path {
		names[k] = s.Topo.Hosts[h].Name
	}
	return names
}

// single sends the whole object over route, path's planned shape, as
// one attempt bounded by transferTimeout: the unrecovered transfer
// every non-retrying mode is. Under Integrity it mints the session id
// and carries the content digest keyed by it.
func (s *System) single(path []int, route Route, size int64, opts ...wire.Option) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	start := time.Now()
	si, di := path[0], path[len(path)-1]
	o := Object{Trace: mintTrace(), Dst: s.endpoints[di], Size: size, Opts: opts}
	if s.cfg.Integrity {
		id, err := wire.NewSessionID()
		if err != nil {
			return s.observed(TransferResult{}, err)
		}
		defer s.sink.Retire(id, o.Trace)
		o.ID = id
		o.Opts = append(o.Opts, integrityOptions(depot.PatternDigest(id, size))...)
	}
	err := s.engine(si, di).Once(s.ctx, o, route, transferTimeout)
	out, err := s.observed(s.result(size, time.Since(start), path), err)
	if err == nil && s.cfg.FeedObservations && len(path) == 2 && route.Entry.IsZero() {
		// A direct transfer doubles as an end-to-end measurement.
		_ = s.Planner.Observe(s.Topo.Hosts[si].Name, s.Topo.Hosts[di].Name, out.Bandwidth)
	}
	return out, err
}

// engine is the Engine of a transfer from host si to host di: it dials
// from si over the emulated network, awaits the system's sink directly
// (no emulated round trip), and fails over around dead relays by the
// planner.
func (s *System) engine(si, di int) *Engine {
	return &Engine{
		Dial:  s.dialerFor(si),
		Src:   s.endpoints[si],
		Await: s.sink.Await,
		Failover: func(r Route, id wire.SessionID, tid wire.TraceID) Route {
			return Route{Via: s.route(s.failoverPath(s.pathOf(si, r, di), id, tid))}
		},
		Metrics: s.cfg.Metrics,
		Trace:   s.cfg.Trace,
	}
}

// route is the loose source route of path: its interior hosts'
// endpoints.
func (s *System) route(path []int) []wire.Endpoint {
	route := make([]wire.Endpoint, 0, len(path)-2)
	for _, h := range path[1 : len(path)-1] {
		route = append(route, s.endpoints[h])
	}
	return route
}

// pathOf is the host-index path of route from si to di.
func (s *System) pathOf(si int, r Route, di int) []int {
	path := []int{si}
	for _, e := range r.Via {
		path = append(path, s.byAddr[e])
	}
	return append(path, di)
}

// Replan rebuilds the scheduling trees from the monitor's current
// forecasts, picking up any observations fed back since the last plan.
// Deployments call this on the paper's five-minute cadence.
func (s *System) Replan() error { return s.Planner.Replan() }

// TransferHopByHop moves size bytes using the paper's second routing
// mode: no loose source route — the initiator dials only the first hop
// of its own tree, and each depot forwards by its route table
// ("destination/next hop tuples ... consumed by the logistical depot").
// The reported path is the initiator's planned path; the depots'
// per-node trees may in principle route differently.
func (s *System) TransferHopByHop(srcHost, dstHost string, size int64) (TransferResult, error) {
	path, err := s.plannedRoute(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.single(path, Route{Entry: s.endpoints[path[1]]}, size)
}

// transferTimeout bounds a single emulated transfer in wall time.
const transferTimeout = 2 * time.Minute

func (s *System) result(size int64, elapsed time.Duration, path []int) TransferResult {
	emulated := time.Duration(float64(elapsed) / s.cfg.TimeScale)
	bw := 0.0
	if emulated > 0 {
		bw = float64(size) / emulated.Seconds()
	}
	return TransferResult{
		Bytes:     size,
		Elapsed:   emulated,
		Bandwidth: bw,
		Path:      s.hostNames(path),
	}
}

// MulticastResult reports a staging operation.
type MulticastResult struct {
	Bytes     int64
	Leaves    []string
	Elapsed   time.Duration // emulated
	Bandwidth float64       // aggregate delivered bytes per emulated second
	Tree      *wire.TreeNode
}

// Multicast stages size bytes from srcHost to every destination host,
// fanning out through the depots on the union of the planner's paths —
// the synchronous application-layer multicast staging option of
// Section 2.
func (s *System) Multicast(srcHost string, dstHosts []string, size int64) (MulticastResult, error) {
	if len(dstHosts) == 0 {
		return MulticastResult{}, fmt.Errorf("core: multicast needs at least one destination")
	}
	si, err := s.resolve(srcHost)
	if err != nil {
		return MulticastResult{}, err
	}
	// Merge the planned unicast paths into one staging tree rooted at
	// the source host's own depot.
	root := &wire.TreeNode{Addr: s.endpoints[si]}
	nodes := map[int]*wire.TreeNode{si: root}
	for _, dh := range dstHosts {
		di, err := s.resolve(dh)
		if err != nil {
			return MulticastResult{}, err
		}
		path, err := s.Planner.Path(si, di)
		if err != nil {
			return MulticastResult{}, err
		}
		if path == nil {
			return MulticastResult{}, fmt.Errorf("core: no route %s → %s", srcHost, dh)
		}
		parent := root
		for _, h := range path[1:] {
			node, ok := nodes[h]
			if !ok {
				node = &wire.TreeNode{Addr: s.endpoints[h]}
				nodes[h] = node
				parent.Children = append(parent.Children, node)
			}
			parent = node
		}
	}

	treeOpt, err := wire.MulticastTreeOption(root)
	if err != nil {
		return MulticastResult{}, fmt.Errorf("core: %w", err)
	}
	o := Object{Type: wire.TypeMulticast, Trace: mintTrace(), Dst: s.endpoints[si], Size: size, Opts: []wire.Option{treeOpt}}
	if o.ID, err = wire.NewSessionID(); err != nil {
		return MulticastResult{}, err
	}
	if s.cfg.Integrity {
		// Every duplication point of the staging tree verifies and
		// re-stamps the chunk framing. The digest stays off: every leaf
		// sink would key its running digest by the one session id.
		o.Opts = append(o.Opts, wire.ChunkChecksumOption())
	}
	// Every leaf's sink reports the one session at offset 0: the
	// engine's attempt takes the first report, the loop the others.
	start, leaves, delivered := time.Now(), root.Leaves(), size
	ctx, cancel := context.WithTimeout(s.ctx, transferTimeout)
	defer cancel()
	err = s.engine(si, si).Once(ctx, o, Route{Entry: root.Addr}, transferTimeout)
	for range leaves[1:] {
		var res depot.Report
		if err == nil {
			res, err = s.sink.Await(ctx, depot.Query{ID: o.ID, Trace: o.Trace})
		}
		if err == nil {
			err = res.Err
		}
		delivered += res.Bytes
	}
	if err != nil {
		s.observed(TransferResult{}, err) //nolint:errcheck // counted; the caller returns err
		return MulticastResult{}, fmt.Errorf("core: multicast: %w", err)
	}
	res, _ := s.observed(s.result(delivered, time.Since(start), nil), nil)
	leafNames := make([]string, len(leaves))
	for k, l := range leaves {
		leafNames[k] = s.Topo.Hosts[s.byAddr[l]].Name
	}
	return MulticastResult{
		Bytes:     delivered,
		Leaves:    leafNames,
		Elapsed:   res.Elapsed,
		Bandwidth: res.Bandwidth,
		Tree:      root,
	}, nil
}
