// Package ctl is the control plane of the logistical session layer: a
// controller that probes the link mesh between registered depots, feeds
// the measurements into the NWS forecasters behind a schedule.Planner,
// and pushes versioned route tables to each depot whenever the
// ε-damped minimax plan actually changes.
//
// The split mirrors the SDN-style architecture the paper implies:
// measurement and decision live here, while depots keep a simple
// lookup-and-forward data path (internal/depot's table-driven mode).
// Table distribution is epoch-stamped and diff-suppressed — the same
// ε-hysteresis that keeps MMP trees from flapping keeps identical
// tables from being re-pushed, so a steady network generates probe
// traffic but no control churn. Depots keep their last table when the
// controller dies (stale routing beats no routing); a periodic full
// refresh re-seeds depots that restarted and missed pushes.
package ctl

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/wire"
)

// DefaultInterval is the probe-and-replan cadence. It matches the
// order of the NWS sensor cadence the paper assumes rather than a
// chatty per-second poll: forecasts, not instantaneous samples, drive
// the plan.
const DefaultInterval = 5 * time.Minute

// DefaultProbeBytes sizes the generate-probe used to measure one link
// when no custom ProbeFunc is injected: large enough to climb out of
// TCP slow start on fast paths, small enough to finish quickly on
// degraded ones.
const DefaultProbeBytes = 256 << 10

// DefaultPushTimeout bounds one table push (dial, write, ack).
const DefaultPushTimeout = 10 * time.Second

// DefaultRefreshEvery is how many rounds may pass before an unchanged
// table is re-pushed anyway, re-seeding depots that restarted (and so
// silently lost their table) without defeating diff suppression.
const DefaultRefreshEvery = 12

// ProbeFunc measures the current bandwidth from src to dst (topology
// host names) in the planner's bandwidth units. Tests inject
// deterministic topology readings; production uses the wire probe.
type ProbeFunc func(src, dst string) (float64, error)

// Config parameterizes a Controller.
type Config struct {
	// Planner is the scheduling system measurements feed and tables come
	// from. Required. The controller assumes sole ownership: nothing
	// else may call Observe/Replan concurrently.
	Planner *schedule.Planner
	// Self is the controller's own endpoint, stamped as the source of
	// control sessions.
	Self wire.Endpoint
	// Dial opens transport connections for probes and pushes. Required
	// unless a custom Probe is set and no member has Push enabled.
	Dial lsl.Dialer
	// Interval is the Run cadence (0 selects DefaultInterval).
	Interval time.Duration
	// ProbeBytes sizes the default wire probe (0 selects
	// DefaultProbeBytes).
	ProbeBytes uint64
	// Probe overrides the wire probe, e.g. with deterministic topology
	// readings in tests. A round calls it serially, once per ordered
	// member pair in row-major member order, so it may keep state (a
	// seeded random source) without locking.
	Probe ProbeFunc
	// Inventory overrides the wire cache-inventory poll, e.g. with
	// deterministic holder sets in tests. With neither an override nor a
	// dialer, inventory aggregation is disabled.
	Inventory InventoryFunc
	// PushTimeout bounds one table push (0 selects DefaultPushTimeout).
	PushTimeout time.Duration
	// RefreshEvery forces a full re-push after this many rounds even
	// without route changes (0 selects DefaultRefreshEvery; negative
	// disables refresh).
	RefreshEvery int
	// Metrics, when non-nil, receives the controller's counters and the
	// epoch gauge.
	Metrics *obs.Registry
	// Trace, when non-nil, receives route-change events.
	Trace obs.Sink
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Metric names published to Config.Metrics.
const (
	MetricEpoch        = "ctl_epoch"
	MetricDepots       = "ctl_depots"
	MetricRounds       = "ctl_rounds_total"
	MetricProbes       = "ctl_probes_total"
	MetricProbeErrors  = "ctl_probe_errors_total"
	MetricReplans      = "ctl_replans_total"
	MetricRouteChanges = "ctl_route_changes_total"
	MetricPushes       = "ctl_pushes_total"
	MetricPushErrors   = "ctl_push_errors_total"
)

type metrics struct {
	epoch            *obs.Gauge
	depots           *obs.Gauge
	rounds           *obs.Counter
	probes           *obs.Counter
	probeErrors      *obs.Counter
	replans          *obs.Counter
	routeChanges     *obs.Counter
	pushes           *obs.Counter
	pushErrors       *obs.Counter
	inventoryDigests *obs.Gauge
	inventoryErrors  *obs.Counter
}

// member is one registered participant of the controlled mesh.
type member struct {
	host string
	idx  int // topology index of host
	addr wire.Endpoint
	key  string // addr.String(): wire tables are sorted by it
	push bool
	// last is the most recently acked table push, for diff suppression.
	// nil means "never successfully pushed" and always triggers a push.
	last []wire.RouteEntry
}

// Controller runs the probe → forecast → replan → push loop.
type Controller struct {
	cfg Config
	met metrics

	mu      sync.Mutex
	members []*member
	index   map[string]int // host name → topology index
	epoch   uint64
	rounds  int
	// holders is the mesh-wide cache inventory of the last round:
	// content digest → sorted names of hosts holding it complete.
	holders map[wire.ContentDigest][]string
}

// New validates the configuration and builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("ctl: Config.Planner is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.ProbeBytes == 0 {
		cfg.ProbeBytes = DefaultProbeBytes
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = DefaultPushTimeout
	}
	if cfg.RefreshEvery == 0 {
		cfg.RefreshEvery = DefaultRefreshEvery
	}
	if cfg.Probe == nil && cfg.Dial == nil {
		return nil, fmt.Errorf("ctl: Config.Dial is required for wire probes")
	}
	c := &Controller{cfg: cfg, index: make(map[string]int)}
	for i, name := range cfg.Planner.Topo.HostNames() {
		c.index[name] = i
	}
	r := cfg.Metrics
	c.met = metrics{
		epoch:            r.Gauge(MetricEpoch),
		depots:           r.Gauge(MetricDepots),
		rounds:           r.Counter(MetricRounds),
		probes:           r.Counter(MetricProbes),
		probeErrors:      r.Counter(MetricProbeErrors),
		replans:          r.Counter(MetricReplans),
		routeChanges:     r.Counter(MetricRouteChanges),
		pushes:           r.Counter(MetricPushes),
		pushErrors:       r.Counter(MetricPushErrors),
		inventoryDigests: r.Gauge(MetricInventoryDigests),
		inventoryErrors:  r.Counter(MetricInventoryErrors),
	}
	return c, nil
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Register adds a mesh member: a topology host reachable at addr. Hosts
// with push=true receive route-table pushes (depots); push=false hosts
// are probed but not pushed (pure endpoints). Registering a host again
// updates its address and push flag and forgets its push history.
func (c *Controller) Register(host string, addr wire.Endpoint, push bool) error {
	idx, ok := c.index[host]
	if !ok {
		return fmt.Errorf("ctl: host %q not in topology %q", host, c.cfg.Planner.Topo.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.host == host {
			m.addr, m.key, m.push, m.last = addr, addr.String(), push, nil
			return nil
		}
	}
	c.members = append(c.members, &member{host: host, idx: idx, addr: addr, key: addr.String(), push: push})
	c.met.depots.Set(int64(len(c.members)))
	return nil
}

// Deregister removes a member from the mesh. Unknown hosts are a no-op.
func (c *Controller) Deregister(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.members {
		if m.host == host {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	c.met.depots.Set(int64(len(c.members)))
}

// Epoch returns the controller's current table epoch (0 before the
// first route push).
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// RoundReport summarizes one control round.
type RoundReport struct {
	// Probes counts attempted link measurements; ProbeErrors the subset
	// that failed or read an invalid bandwidth (those feed nothing into
	// the forecasters, so the last forecast simply persists).
	Probes, ProbeErrors int
	// Epoch is the controller's table epoch after the round.
	Epoch uint64
	// Changed lists the hosts whose computed table differed from their
	// last acked push this round.
	Changed []string
	// Pushed counts table pushes acked by depots; PushErrors those that
	// dialed, wrote or acked wrong (they stay dirty and re-push next
	// round).
	Pushed, PushErrors int
	// Inventoried counts members whose cache inventory was collected
	// this round; InventoryErrors the polls that failed outright
	// (refusals from cacheless depots count as neither).
	Inventoried, InventoryErrors int
}

// Round runs one probe → replan → diff → push cycle. It is the unit
// Run repeats; tests and the -once daemon mode call it directly. The
// context bounds the whole round.
func (c *Controller) Round(ctx context.Context) (RoundReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep RoundReport
	c.rounds++
	c.met.rounds.Inc()

	if err := c.probeMesh(ctx, &rep); err != nil {
		return rep, err
	}
	if err := c.cfg.Planner.Replan(); err != nil {
		return rep, fmt.Errorf("ctl: replan: %w", err)
	}
	c.met.replans.Inc()

	// Aggregate the mesh-wide cache inventory alongside the bandwidth
	// measurements: one round yields both the cost picture and the
	// content picture cache-aware planning needs.
	c.refreshInventory(ctx, &rep)

	// Compute each push member's wire table and diff it against the last
	// acked push. The ε damping inside Replan is what makes this diff
	// meaningful: within-ε forecast jitter reproduces identical trees,
	// hence identical tables, hence no pushes.
	refresh := c.cfg.RefreshEvery > 0 && c.rounds%c.cfg.RefreshEvery == 0
	type pending struct {
		m       *member
		entries []wire.RouteEntry
	}
	var dirty []pending
	dsts, addrOf := c.tableOrder()
	for _, m := range c.members {
		if !m.push {
			continue
		}
		entries, err := c.wireTable(m, dsts, addrOf)
		if err != nil {
			return rep, fmt.Errorf("ctl: route table for %s: %w", m.host, err)
		}
		if m.last != nil && equalTables(m.last, entries) && !refresh {
			continue
		}
		if m.last == nil || !equalTables(m.last, entries) {
			rep.Changed = append(rep.Changed, m.host)
			c.met.routeChanges.Inc()
			obs.Emit(c.cfg.Trace, obs.Event{
				Kind: obs.KindRoutes, Node: c.cfg.Self.String(), Peer: m.addr.String(),
				Detail: fmt.Sprintf("routes for %s changed (%d entries)", m.host, len(entries)),
			})
		}
		dirty = append(dirty, pending{m: m, entries: entries})
	}

	// One new epoch covers every push of the round, so depots that
	// receive it agree on the table version.
	if len(dirty) > 0 {
		c.epoch++
		c.met.epoch.Set(int64(c.epoch))
	}
	rep.Epoch = c.epoch
	// The pushes go out together, each bounded on its own; what they
	// changed is recorded after all of them return, in member order.
	errs := make([]error, len(dirty))
	var wg sync.WaitGroup
	for i, p := range dirty {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.push(ctx, p.m, c.epoch, p.entries)
		}()
	}
	wg.Wait()
	for i, p := range dirty {
		if err := errs[i]; err != nil {
			rep.PushErrors++
			c.met.pushErrors.Inc()
			c.logf("ctl: push to %s (%s): %v", p.m.host, p.m.addr, err)
			// m.last stays as it was, so the push retries next round.
			continue
		}
		p.m.last = p.entries
		rep.Pushed++
		c.met.pushes.Inc()
	}
	c.logf("ctl: round %d: probes=%d probe-errors=%d epoch=%d changed=%d pushed=%d push-errors=%d",
		c.rounds, rep.Probes, rep.ProbeErrors, rep.Epoch, len(rep.Changed), rep.Pushed, rep.PushErrors)
	return rep, nil
}

// probeMesh probes every ordered pair of members, serially and in
// member order, and hands each finished source row to GOMAXPROCS
// workers that feed it to the forecasters while the next row is
// probed: a row is one worker's, and the monitor takes distinct pairs
// concurrently. Failed probes and rejected readings are counted and
// logged once the workers join, in row-major order, so the round feeds
// and reports exactly what a serial one would.
func (c *Controller) probeMesh(ctx context.Context, rep *RoundReport) error {
	probe := c.cfg.Probe
	if probe == nil {
		probe = func(src, dst string) (float64, error) { return c.wireProbe(ctx, src, dst) }
	}
	n := len(c.members)
	bw, errs := make([]float64, n*n), make([]error, n*n)
	// A source row and how many of its columns were probed; a slot per
	// row, so the sweep never waits on the workers.
	rows := make(chan [2]int, n)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rows {
				for j, dst := range c.members[:r[1]] {
					if k := r[0]*n + j; j != r[0] && errs[k] == nil {
						errs[k] = c.cfg.Planner.Observe(c.members[r[0]].host, dst.host, bw[k])
					}
				}
			}
		}()
	}
	// A deadline that has passed ends the sweep even before ctx's own
	// timer fires: past it, every probe would fail at once.
	dl, bounded := ctx.Deadline()
	var err error
	for i := 0; i < n && err == nil; i++ {
		j := 0
		for ; j < n; j++ {
			if err = ctx.Err(); err == nil && bounded && !time.Now().Before(dl) {
				err = context.DeadlineExceeded
			}
			if err != nil {
				break
			}
			if i != j {
				rep.Probes++
				c.met.probes.Inc()
				bw[i*n+j], errs[i*n+j] = probe(c.members[i].host, c.members[j].host)
			}
		}
		rows <- [2]int{i, j}
	}
	close(rows)
	wg.Wait()
	for k, perr := range errs {
		if perr != nil {
			rep.ProbeErrors++
			c.met.probeErrors.Inc()
			c.logf("ctl: probe %s -> %s: %v", c.members[k/n].host, c.members[k%n].host, perr)
		}
	}
	return err
}

// Run repeats Round at the configured interval until the context ends,
// starting with an immediate round. Round errors are logged, not fatal:
// the loop is the controller's reason to exist and a transient planner
// or transport failure must not end it.
func (c *Controller) Run(ctx context.Context) error {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		if _, err := c.Round(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			c.logf("ctl: round: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// tableOrder returns the members sorted by address string, the order
// of every wire table, and their addresses by topology index.
func (c *Controller) tableOrder() ([]*member, map[int]wire.Endpoint) {
	dsts := slices.Clone(c.members)
	slices.SortFunc(dsts, func(a, b *member) int { return strings.Compare(a.key, b.key) })
	addrOf := make(map[int]wire.Endpoint, len(dsts))
	for _, d := range dsts {
		addrOf[d.idx] = d.addr
	}
	return dsts, addrOf
}

// wireTable maps m's planner route table (topology indices) to wire
// endpoints, skipping destinations or hops with no registered address.
// It walks dsts, the members sorted by address string, and addrOf maps
// their topology indices to addresses, so entries come back sorted by
// Dst.String() and equal tables are equal slices.
func (c *Controller) wireTable(m *member, dsts []*member, addrOf map[int]wire.Endpoint) ([]wire.RouteEntry, error) {
	rt, err := c.cfg.Planner.RouteTable(m.idx)
	if err != nil {
		return nil, err
	}
	entries := make([]wire.RouteEntry, 0, len(rt))
	for _, d := range dsts {
		if next, ok := rt[graph.NodeID(d.idx)]; ok {
			if na, ok := addrOf[int(next)]; ok {
				entries = append(entries, wire.RouteEntry{Dst: d.addr, Next: na})
			}
		}
	}
	return entries, nil
}

// equalTables compares two sorted entry slices.
func equalTables(a, b []wire.RouteEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// push opens a TypeControl session to m, writes the epoch-stamped
// table, and requires an ack echoing the pushed epoch. Any other
// outcome is a failed push.
func (c *Controller) push(ctx context.Context, m *member, epoch uint64, entries []wire.RouteEntry) error {
	if c.cfg.Dial == nil {
		return fmt.Errorf("no dialer configured")
	}
	opts, err := wire.RouteTableOptions(entries)
	if err != nil {
		return err
	}
	dl := c.deadline(ctx)
	conn, err := c.dialer(dl).Dial(m.addr.String())
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(dl)
	id, err := wire.NewSessionID()
	if err != nil {
		return err
	}
	h := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeControl,
		Session: id,
		Src:     c.cfg.Self,
		Dst:     m.addr,
		Options: append(opts, wire.TableEpochOption(epoch)),
	}
	if err := wire.WriteHeader(conn, h); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	ack, err := wire.ReadHeader(conn)
	if err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	if ack.Type == wire.TypeRefuse {
		return fmt.Errorf("refused: %w", lsl.ErrRefused)
	}
	if got := ack.TableEpoch(); got != epoch {
		return fmt.Errorf("ack epoch %d, pushed %d", got, epoch)
	}
	return nil
}

// deadline is PushTimeout from now, or the round's deadline if sooner.
func (c *Controller) deadline(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.cfg.PushTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// dialer bounds each dial through Config.Dial by dl, one already past
// included.
func (c *Controller) dialer(dl time.Time) lsl.Dialer {
	return lsl.TimeoutDialer(c.cfg.Dial, max(time.Until(dl), time.Nanosecond))
}

// wireProbe measures src→dst with a generate session: it asks src's
// depot to synthesize ProbeBytes and forward them directly to dst (the
// remaining source route pins the direct hop, so table-driven depots
// cannot contaminate the measurement), then times until the depot's
// completion close. Bandwidth is bytes over elapsed seconds — an
// approximation biased by the probe's slow-start ramp, which the
// forecasters smooth like any other noisy sensor reading.
func (c *Controller) wireProbe(ctx context.Context, src, dst string) (float64, error) {
	sa, da, err := c.memberAddrs(src, dst)
	if err != nil {
		return 0, err
	}
	start, dl := time.Now(), c.deadline(ctx)
	// Each probe is its own traced transfer: the depot-side events it
	// provokes correlate under one id, distinguishable from data
	// traffic when timelines are assembled.
	opts := []wire.Option{wire.GenerateOption(c.cfg.ProbeBytes)}
	if tid, terr := wire.NewTraceID(); terr == nil {
		opts = append(opts, wire.TraceIDOption(tid))
	}
	sess, err := lsl.Start(c.dialer(dl), lsl.Spec{Type: wire.TypeGenerate, Src: c.cfg.Self, Dst: da, Route: []wire.Endpoint{sa}, Options: opts})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	_ = sess.SetDeadline(dl)
	if _, err := io.Copy(io.Discard, sess); err != nil {
		return 0, fmt.Errorf("probe read: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("probe finished in zero time")
	}
	return float64(c.cfg.ProbeBytes) / elapsed, nil
}

// memberAddrs resolves two member hosts to their registered addresses.
// Callers hold c.mu.
func (c *Controller) memberAddrs(src, dst string) (sa, da wire.Endpoint, err error) {
	var haveS, haveD bool
	for _, m := range c.members {
		if m.host == src {
			sa, haveS = m.addr, true
		}
		if m.host == dst {
			da, haveD = m.addr, true
		}
	}
	if !haveS || !haveD {
		return sa, da, fmt.Errorf("ctl: unregistered probe pair %s -> %s", src, dst)
	}
	return sa, da, nil
}
