// Package core is the top-level façade of the library: it assembles a
// complete in-process LSL deployment — an emulated wide-area network
// built from a performance topology, a depot server on every host, an
// NWS-fed Minimax-Path planner — and exposes the operations a Grid
// application performs: scheduled transfers, direct transfers, and
// multicast staging.
//
// A System is the "middleware bundle" the paper argues Grid
// environments need: applications name hosts, the planner chooses the
// forwarding path, and the session layer moves the bytes through
// depots.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/ctl"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// Config parameterizes System construction.
type Config struct {
	// TimeScale compresses emulated time: 0.01 runs a 40 ms link with
	// 0.4 ms of real latency (and scales rates to match). Defaults to
	// 0.01.
	TimeScale float64
	// Epsilon is the scheduler's edge-equivalence (negative selects
	// schedule.DefaultEpsilon).
	Epsilon float64
	// PrimeSamples seeds the NWS monitor before the first plan
	// (default 8).
	PrimeSamples int
	// Seed drives every random choice.
	Seed int64
	// BasePort is the depot listening port (default 7411).
	BasePort uint16
	// FeedObservations feeds the measured bandwidth of each completed
	// direct transfer back into the NWS monitor, so subsequent Replan
	// calls schedule from live data instead of only the priming
	// measurements — the paper's continuous-measurement operating mode.
	FeedObservations bool
	// ControlPlane runs the deployment in controller-owned routing mode:
	// every depot is table-driven (no live planner access, no direct
	// fallback for unrouted destinations) and an in-process ctl
	// controller probes the mesh, replans and pushes epoch-stamped route
	// tables. ControlRound advances it deterministically.
	ControlPlane bool
	// MaxHops bounds depot forwarding chains (0 selects
	// DefaultMaxHops under ControlPlane, unlimited otherwise).
	MaxHops int
	// Metrics, when non-nil, is shared by every depot in the system and
	// by the transfer façade: depot counters and back-pressure gauges
	// aggregate across hosts, and core_transfer_* metrics record each
	// completed transfer.
	Metrics *obs.Registry
	// Trace, when non-nil, receives hop-indexed session lifecycle
	// events from every depot plus the initiator's hop-0 events — an
	// ordered per-hop trace of each transfer.
	Trace obs.Sink
	// Sessions, when non-nil, tracks in-flight sessions across every
	// depot for live inspection.
	Sessions *obs.SessionTable
	// FairShare, when non-nil, attaches a weighted fair-share chunk
	// scheduler to every depot in the system. Each depot gets its own
	// scheduler (its downstream trunk is an independent resource), so
	// concurrent sessions through one depot split that depot's
	// forwarding capacity by their carried weights. A zero Rate keeps
	// every scheduler work-conserving: arbitration without shaping.
	FairShare *fairshare.Config
	// MaxSessions caps concurrent sessions per depot (0 = unlimited),
	// and QueueDepth/QueueTimeout configure each depot's bounded
	// admission queue, exactly as in depot.Config.
	MaxSessions  int
	QueueDepth   int
	QueueTimeout time.Duration
	// CacheBytes, when positive, attaches a content-addressed chunk
	// cache of that many memory bytes to every depot in the system.
	// Depots populate their caches from integrity-stamped forwarded
	// traffic and serve repeat transfers of the same object locally;
	// TransferCached is the façade operation that exploits them.
	CacheBytes int64
	// Integrity runs every transfer with end-to-end data integrity:
	// payloads travel as CRC-32C-framed chunks that every depot hop
	// verifies and re-stamps (so the corrupting hop is identified), and
	// unstriped transfers additionally carry a whole-object SHA-256
	// digest the sink checks on completion. Detected corruption is a
	// transient error — the reliable transfer paths re-send the damaged
	// range through the resume continuation instead of aborting.
	Integrity bool
}

func (c Config) withDefaults() Config {
	if c.TimeScale <= 0 {
		c.TimeScale = 0.01
	}
	if c.PrimeSamples <= 0 {
		c.PrimeSamples = 8
	}
	if c.BasePort == 0 {
		c.BasePort = 7411
	}
	if c.ControlPlane && c.MaxHops == 0 {
		c.MaxHops = DefaultMaxHops
	}
	return c
}

// DefaultMaxHops is the forwarding TTL of control-plane deployments:
// far above any sane relay chain, low enough that a transient routing
// loop burns out quickly.
const DefaultMaxHops = 16

// System is a running in-process LSL deployment.
type System struct {
	Topo    *topo.Topology
	Net     *emu.Network
	Planner *schedule.Planner

	cfg       Config
	endpoints []wire.Endpoint // host index → endpoint
	byAddr    map[wire.Endpoint]int
	depots    []*depot.Server
	caches    []*cache.Cache // host index → depot cache (nil without CacheBytes)
	faults    []*depot.FaultInjector
	listeners []net.Listener
	rng       *rand.Rand
	control   *ctl.Controller

	// sink is every host's Config.Local: it verifies what lands, and
	// senders await its reports.
	sink *depot.Sink
	// ctx is the root of every transfer, store and control round; Close
	// cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	closeOnce sync.Once
}

// NewSystem builds the deployment: an emulated link per host pair, a
// depot server per host, and a primed, planned scheduler.
func NewSystem(t *topo.Topology, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	planner, err := schedule.NewPlanner(t, cfg.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &System{
		Topo:      t,
		Net:       emu.NewNetwork(cfg.TimeScale),
		Planner:   planner,
		cfg:       cfg,
		endpoints: make([]wire.Endpoint, t.N()),
		byAddr:    make(map[wire.Endpoint]int, t.N()),
		depots:    make([]*depot.Server, t.N()),
		caches:    make([]*cache.Cache, t.N()),
		faults:    make([]*depot.FaultInjector, t.N()),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sink:      depot.NewSink(nil, cfg.Metrics),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	// Address plan: host i gets 10.(i/200).(i%200+1).1.
	for i := 0; i < t.N(); i++ {
		e := wire.Endpoint{
			IP:   [4]byte{10, byte(i / 200), byte(i%200 + 1), 1},
			Port: cfg.BasePort,
		}
		s.endpoints[i] = e
		s.byAddr[e] = i
	}

	// Emulated links: one-way latency is half the path RTT; rates are
	// scaled so emulated bandwidth is preserved under time compression.
	for i := 0; i < t.N(); i++ {
		for j := i + 1; j < t.N(); j++ {
			l := t.Link(i, j)
			if !l.Valid() {
				continue
			}
			s.Net.SetLink(s.hostAddr(i), s.hostAddr(j), emu.LinkProps{
				Latency: time.Duration(float64(l.RTT.Std()) / 2),
				Rate:    l.Capacity / cfg.TimeScale,
				Window:  int(min(t.Hosts[i].SndBuf, t.Hosts[j].RcvBuf)),
			})
		}
	}

	// One depot per host. Non-depot hosts still run a server so they
	// can terminate sessions, but the planner never routes through
	// them.
	for i := 0; i < t.N(); i++ {
		s.faults[i] = depot.NewFaultInjector()
		dcfg := depot.Config{
			Self:          s.endpoints[i],
			Dial:          s.dialerFor(i),
			Routes:        s.routeLookup(i),
			Local:         s.sink.Handle,
			PipelineBytes: int(t.Hosts[i].PipelineBytes), // 0: the depot's default
			MaxHops:       cfg.MaxHops,
			Metrics:       cfg.Metrics,
			Trace:         cfg.Trace,
			Sessions:      cfg.Sessions,
			Faults:        s.faults[i],
			MaxSessions:   cfg.MaxSessions,
			QueueDepth:    cfg.QueueDepth,
			QueueTimeout:  cfg.QueueTimeout,
		}
		if cfg.FairShare != nil {
			dcfg.FairShare = fairshare.New(*cfg.FairShare)
		}
		if cfg.CacheBytes > 0 {
			c, err := cache.New(cache.Config{MemoryBytes: cfg.CacheBytes, Metrics: cfg.Metrics})
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("core: cache %s: %w", t.Hosts[i].Name, err)
			}
			s.caches[i] = c
			dcfg.Cache = c
		}
		if cfg.ControlPlane {
			// Controller-owned routing: no live planner access, no direct
			// fallback — the depot knows only what the controller pushed.
			dcfg.Routes = nil
			dcfg.TableDriven = true
			dcfg.AcceptControl = true
		}
		d, err := depot.New(dcfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: depot %s: %w", t.Hosts[i].Name, err)
		}
		s.depots[i] = d
		ln, err := s.Net.Listen(s.endpoints[i].String())
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: listen %s: %w", t.Hosts[i].Name, err)
		}
		s.listeners = append(s.listeners, ln)
		go d.Serve(ln) //nolint:errcheck // serve exits when the listener closes
	}

	if err := planner.Prime(s.rng, cfg.PrimeSamples); err != nil {
		s.Close()
		return nil, err
	}
	if err := planner.Replan(); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.ControlPlane {
		if err := s.startControl(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// hostAddr is the emulated-network host identity of host index i (its
// IPv4 address as text).
func (s *System) hostAddr(i int) string {
	e := s.endpoints[i]
	return fmt.Sprintf("%d.%d.%d.%d", e.IP[0], e.IP[1], e.IP[2], e.IP[3])
}

// Endpoint returns host i's LSL endpoint.
func (s *System) Endpoint(i int) wire.Endpoint { return s.endpoints[i] }

// Fault returns the named host's depot fault injector, the handle
// chaos tests use to break the data path deterministically.
func (s *System) Fault(host string) (*depot.FaultInjector, error) {
	i, err := s.resolve(host)
	if err != nil {
		return nil, err
	}
	return s.faults[i], nil
}

// KillDepot abruptly stops the named host's depot — server and
// listener — so in-flight sessions through it die and new connections
// are refused, exactly as a crashed depot machine behaves. There is no
// resurrection; the planner's forecasts still advertise the host until
// recovery reroutes around it.
func (s *System) KillDepot(host string) error {
	i, err := s.resolve(host)
	if err != nil {
		return err
	}
	s.depots[i].Close()
	if i < len(s.listeners) && s.listeners[i] != nil {
		s.listeners[i].Close()
	}
	return nil
}

// routeLookup builds a depot's route-table function from the planner's
// tree rooted at that host, resolved lazily so replans take effect.
func (s *System) routeLookup(host int) func(wire.Endpoint) (wire.Endpoint, bool) {
	return func(dst wire.Endpoint) (wire.Endpoint, bool) {
		di, ok := s.byAddr[dst]
		if !ok {
			return wire.Endpoint{}, false
		}
		tree, err := s.Planner.Tree(host)
		if err != nil {
			return wire.Endpoint{}, false
		}
		next := tree.NextHop(graph.NodeID(di))
		if next < 0 {
			return wire.Endpoint{}, false
		}
		return s.endpoints[int(next)], true
	}
}

// Close cancels every operation in flight and shuts down every
// listener.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		for _, d := range s.depots {
			if d != nil {
				d.Close()
			}
		}
		for _, ln := range s.listeners {
			ln.Close()
		}
	})
}
