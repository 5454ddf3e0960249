package core

import (
	"fmt"
	"net"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/graph"
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

// observeTransfer records a completed (or failed) transfer in the
// system's registry. Durations and rates are in emulated time, like
// TransferResult itself.
func (s *System) observeTransfer(res TransferResult, err error) {
	r := s.cfg.Metrics
	if err != nil {
		r.Counter(MetricTransferErrors).Inc()
		return
	}
	r.Counter(MetricTransfers).Inc()
	r.Counter(MetricTransferBytes).Add(res.Bytes)
	// 1 ms .. ~1000 s emulated transfer durations.
	r.Histogram(MetricTransferSeconds, obs.ExpBuckets(1e-3, 2, 20)).Observe(res.Elapsed.Seconds())
	// 1 .. ~16k Mbit/s end-to-end rates.
	r.Histogram(MetricTransferMbps, obs.ExpBuckets(1, 2, 15)).Observe(res.Bandwidth * 8 / 1e6)
}

// emitHop0 reports an initiator-side (hop 0) trace event. tid is the
// end-to-end trace identifier the logical transfer minted; a zero id
// (tracing unavailable) leaves the event uncorrelated.
func (s *System) emitHop0(id wire.SessionID, tid wire.TraceID, src int, kind string, e obs.Event) {
	e.Kind = kind
	e.Session = id.String()
	if !tid.IsZero() {
		e.Trace = tid.String()
	}
	e.Hop = 0
	e.Node = s.endpoints[src].String()
	obs.Emit(s.cfg.Trace, e)
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

// traceOpt renders tid as the extra header options an initiator passes
// to the lsl Open family: empty for a zero id, so untraced transfers
// put nothing on the wire.
func traceOpt(tid wire.TraceID) []wire.Option {
	if tid.IsZero() {
		return nil
	}
	return []wire.Option{wire.TraceIDOption(tid)}
}

func graphNode(i int) graph.NodeID { return graph.NodeID(i) }

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

// Transfer moves size bytes from srcHost to dstHost over the planner's
// chosen path (which may be direct), waiting until the sink has
// received and verified every byte.
func (s *System) Transfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	path, err := s.Planner.Path(si, di)
	if err != nil {
		return TransferResult{}, err
	}
	if path == nil {
		return TransferResult{}, fmt.Errorf("core: no route %s → %s", srcHost, dstHost)
	}
	return s.transferAlong(path, size)
}

// TransferWeighted is Transfer with an explicit fair-share weight: the
// session carries wire.OptSessionWeight, so every scheduled depot on
// the path grants it weight× the per-round credit of a weight-1
// session. On an unscheduled deployment the option rides along inert.
func (s *System) TransferWeighted(srcHost, dstHost string, size int64, weight uint16) (TransferResult, error) {
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	path, err := s.Planner.Path(si, di)
	if err != nil {
		return TransferResult{}, err
	}
	if path == nil {
		return TransferResult{}, fmt.Errorf("core: no route %s → %s", srcHost, dstHost)
	}
	return s.transferAlong(path, size, wire.SessionWeightOption(weight))
}

// DirectTransfer bypasses the scheduler and moves the bytes over the
// single end-to-end connection, the baseline of every comparison.
func (s *System) DirectTransfer(srcHost, dstHost string, size int64) (TransferResult, error) {
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.transferAlong([]int{si, di}, size)
}

// PlannedPath reports the host names on the planner's current route.
func (s *System) PlannedPath(srcHost, dstHost string) ([]string, error) {
	si, err := s.resolve(srcHost)
	if err != nil {
		return nil, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return nil, err
	}
	path, err := s.Planner.Path(si, di)
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

// transferAlong runs one transfer over an explicit host-index path.
// extra options (trace ids are added here; weights arrive from the
// caller) ride the session header end to end.
func (s *System) transferAlong(path []int, size int64, extra ...wire.Option) (TransferResult, error) {
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	if len(path) < 2 {
		return TransferResult{}, fmt.Errorf("core: path needs at least 2 hosts")
	}
	src, dst := path[0], path[len(path)-1]
	route := make([]wire.Endpoint, 0, len(path)-2)
	for _, h := range path[1 : len(path)-1] {
		route = append(route, s.endpoints[h])
	}

	start := time.Now()
	tid := mintTrace()
	opts := append(traceOpt(tid), extra...)
	var (
		sess *lsl.Session
		err  error
	)
	if s.cfg.Integrity {
		// The content digest is keyed by the session id (the payload is
		// the id-seeded pattern), so integrity transfers mint the id
		// before opening instead of letting Open draw one.
		id, ierr := wire.NewSessionID()
		if ierr != nil {
			s.observeTransfer(TransferResult{}, ierr)
			return TransferResult{}, ierr
		}
		defer s.digests.drop(id)
		opts = append(opts, integrityOptions(depot.PatternDigest(id, size))...)
		sess, err = lsl.OpenAtID(s.dialerFor(src), id, s.endpoints[src], s.endpoints[dst], route, 0, opts...)
	} else {
		sess, err = lsl.Open(s.dialerFor(src), s.endpoints[src], s.endpoints[dst], route, opts...)
	}
	if err != nil {
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, err
	}
	first := dst
	if len(path) > 2 {
		first = path[1]
	}
	s.emitHop0(sess.ID(), tid, src, obs.KindConnect, obs.Event{Peer: s.endpoints[first].String()})
	ch := s.registerWaiter(sess.ID())
	defer s.dropWaiter(sess.ID())

	s.emitHop0(sess.ID(), tid, src, obs.KindFirstByte, obs.Event{})
	werr := writeSessionPattern(sess, size)
	sess.Close()
	if werr != nil {
		s.observeTransfer(TransferResult{}, werr)
		return TransferResult{}, fmt.Errorf("core: send: %w", werr)
	}
	s.emitHop0(sess.ID(), tid, src, obs.KindLastByte, obs.Event{Bytes: size})

	select {
	case res := <-ch:
		elapsed := time.Since(start)
		if res.err != nil {
			s.observeTransfer(TransferResult{}, res.err)
			return TransferResult{}, fmt.Errorf("core: sink: %w", res.err)
		}
		if res.bytes != size {
			err := fmt.Errorf("core: sink received %d of %d bytes", res.bytes, size)
			s.observeTransfer(TransferResult{}, err)
			return TransferResult{}, err
		}
		out := s.result(size, elapsed, path)
		s.observeTransfer(out, nil)
		if s.cfg.FeedObservations && len(path) == 2 {
			// A direct transfer doubles as an end-to-end measurement.
			_ = s.Planner.Observe(s.Topo.Hosts[src].Name, s.Topo.Hosts[dst].Name, out.Bandwidth)
		}
		return out, nil
	case <-time.After(transferTimeout):
		err := fmt.Errorf("core: transfer timed out after %v", transferTimeout)
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, err
	}
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
	if size <= 0 {
		return TransferResult{}, fmt.Errorf("core: transfer size %d must be positive", size)
	}
	si, err := s.resolve(srcHost)
	if err != nil {
		return TransferResult{}, err
	}
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	path, err := s.Planner.Path(si, di)
	if err != nil {
		return TransferResult{}, err
	}
	if path == nil {
		return TransferResult{}, fmt.Errorf("core: no route %s → %s", srcHost, dstHost)
	}
	first := di
	if len(path) > 2 {
		first = path[1]
	}

	start := time.Now()
	// Dial the first hop with the final destination in the header and
	// NO source route: forwarding decisions belong to the depots.
	conn, err := s.dialerFor(si).Dial(s.endpoints[first].String())
	if err != nil {
		return TransferResult{}, err
	}
	tid := mintTrace()
	opts := traceOpt(tid)
	if s.cfg.Integrity {
		// Hop-by-hop sessions get per-hop chunk protection; the
		// end-to-end digest needs the session id before dialing, which
		// Wrap mints internally, so it stays off this path.
		opts = append(opts, wire.ChunkChecksumOption())
	}
	sess, err := lsl.Wrap(conn, s.endpoints[si], s.endpoints[di], opts...)
	if err != nil {
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, err
	}
	s.emitHop0(sess.ID(), tid, si, obs.KindConnect, obs.Event{Peer: s.endpoints[first].String()})
	ch := s.registerWaiter(sess.ID())
	defer s.dropWaiter(sess.ID())

	s.emitHop0(sess.ID(), tid, si, obs.KindFirstByte, obs.Event{})
	if err := writeSessionPattern(sess, size); err != nil {
		sess.Close()
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, fmt.Errorf("core: hop-by-hop send: %w", err)
	}
	sess.Close()
	s.emitHop0(sess.ID(), tid, si, obs.KindLastByte, obs.Event{Bytes: size})

	select {
	case res := <-ch:
		elapsed := time.Since(start)
		if res.err != nil {
			s.observeTransfer(TransferResult{}, res.err)
			return TransferResult{}, fmt.Errorf("core: sink: %w", res.err)
		}
		if res.bytes != size {
			err := fmt.Errorf("core: sink received %d of %d bytes", res.bytes, size)
			s.observeTransfer(TransferResult{}, err)
			return TransferResult{}, err
		}
		out := s.result(size, elapsed, path)
		s.observeTransfer(out, nil)
		return out, nil
	case <-time.After(transferTimeout):
		err := fmt.Errorf("core: hop-by-hop transfer timed out after %v", transferTimeout)
		s.observeTransfer(TransferResult{}, err)
		return TransferResult{}, err
	}
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

// writeSessionPattern streams the session's deterministic pattern —
// through the chunk framer when the session is checksummed. The copy
// buffer is pooled with the depot pumps and sink loops.
func writeSessionPattern(sess *lsl.Session, size int64) error {
	w := sessionWriter(sess)
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	buf := *bp
	var written int64
	for written < size {
		n := int64(len(buf))
		if remaining := size - written; remaining < n {
			n = remaining
		}
		depot.FillPattern(buf[:n], sess.ID(), written)
		m, err := w.Write(buf[:n])
		written += int64(m)
		if err != nil {
			return err
		}
	}
	return nil
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

	start := time.Now()
	tid := mintTrace()
	mopts := traceOpt(tid)
	if s.cfg.Integrity {
		// Every duplication point of the staging tree verifies and
		// re-stamps the chunk framing; like hop-by-hop, the digest stays
		// off because OpenMulticast mints the session id itself.
		mopts = append(mopts, wire.ChunkChecksumOption())
	}
	sess, err := lsl.OpenMulticast(s.dialerFor(si), s.endpoints[si], s.endpoints[si], root, mopts...)
	if err != nil {
		s.observeTransfer(TransferResult{}, err)
		return MulticastResult{}, err
	}
	s.emitHop0(sess.ID(), tid, si, obs.KindConnect, obs.Event{Peer: root.Addr.String()})
	ch := s.registerWaiter(sess.ID())
	defer s.dropWaiter(sess.ID())

	s.emitHop0(sess.ID(), tid, si, obs.KindFirstByte, obs.Event{})
	if err := writeSessionPattern(sess, size); err != nil {
		sess.Close()
		s.observeTransfer(TransferResult{}, err)
		return MulticastResult{}, fmt.Errorf("core: multicast send: %w", err)
	}
	sess.Close()
	s.emitHop0(sess.ID(), tid, si, obs.KindLastByte, obs.Event{Bytes: size})

	leaves := root.Leaves()
	var delivered int64
	for range leaves {
		select {
		case res := <-ch:
			if res.err != nil {
				s.observeTransfer(TransferResult{}, res.err)
				return MulticastResult{}, fmt.Errorf("core: multicast sink: %w", res.err)
			}
			delivered += res.bytes
		case <-time.After(transferTimeout):
			err := fmt.Errorf("core: multicast timed out after %v", transferTimeout)
			s.observeTransfer(TransferResult{}, err)
			return MulticastResult{}, err
		}
	}
	elapsed := time.Duration(float64(time.Since(start)) / s.cfg.TimeScale)
	bw := 0.0
	if elapsed > 0 {
		bw = float64(delivered) / elapsed.Seconds()
	}
	s.observeTransfer(TransferResult{Bytes: delivered, Elapsed: elapsed, Bandwidth: bw}, nil)
	leafNames := make([]string, len(leaves))
	for k, l := range leaves {
		leafNames[k] = s.Topo.Hosts[s.byAddr[l]].Name
	}
	return MulticastResult{
		Bytes:     delivered,
		Leaves:    leafNames,
		Elapsed:   elapsed,
		Bandwidth: bw,
		Tree:      root,
	}, nil
}
