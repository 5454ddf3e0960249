package main

// adapter.go is the only file of the benchmark that imports the repo's
// internal packages. Workloads, the ladder, statistics and output see
// the program under test through the types below, so an API change in
// internal/... (ROADMAP item 1 folds the Open*/Transfer* families) is
// answered here and nowhere else.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/ctl"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/emu"
	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/graph"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/nws"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

// Digest is the sender-minted content digest carried in a session
// header.
type Digest = wire.ContentDigest

// MintDigest computes the digest a sender stamps on payload.
func MintDigest(payload []byte) Digest {
	return Digest{Size: int64(len(payload)), Sum: sha256.Sum256(payload)}
}

// tcpDialer is the lsl-depot onward dialer.
var tcpDialer = lsl.DialerFunc(func(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
})

// ---- observability sinks (traced runs only) ----

// Observed bundles the sinks the lsl-depot binary installs when its
// telemetry is on: a metrics registry, a trace collector and a session
// table. End-to-end runs pass nil everywhere.
type Observed struct {
	reg      *obs.Registry
	col      *obs.Collector
	sessions *obs.SessionTable
}

// NewObserved builds the sinks and installs the registry for session
// set-up metrics, as lsl-depot does.
func NewObserved() *Observed {
	o := &Observed{reg: obs.NewRegistry(), col: obs.NewCollector(0), sessions: obs.NewSessionTable()}
	o.col.CountDrops(o.reg.Counter(obs.MetricTraceDrops))
	lsl.SetMetrics(o.reg)
	return o
}

// Close uninstalls the registry and stops the collector.
func (o *Observed) Close() {
	lsl.SetMetrics(nil)
	o.col.Close()
}

// StallNanos is the depots' cumulative pump stall time.
func (o *Observed) StallNanos() int64 { return o.reg.Counter(depot.MetricPumpStallNanos).Value() }

// BytesForwarded is the depots' cumulative forwarded payload.
func (o *Observed) BytesForwarded() int64 { return o.reg.Counter(depot.MetricBytesForwarded).Value() }

func (o *Observed) registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

func (o *Observed) sink() obs.Sink {
	if o == nil {
		return nil
	}
	return o.col
}

func (o *Observed) table() *obs.SessionTable {
	if o == nil {
		return nil
	}
	return o.sessions
}

// ---- loopback-TCP depot chain ----

// ChainConfig describes a chain of depots on loopback listeners, each
// built the way cmd/lsl-depot builds its server.
type ChainConfig struct {
	Hops       int    // depots between source and sink (0 = direct)
	SinkAddr   string // the sink's listener, "127.0.0.1:port"
	FairShare  bool   // a work-conserving scheduler per depot
	CacheBytes int64  // a content-addressed cache on the first depot
	Corrupt    int64  // >0: depot 2 flips one byte after this many payload bytes
	Obs        *Observed
}

// ChainStats sums Server.Stats() over the chain's depots.
type ChainStats struct {
	Refused, Errors, ChecksumErrors int64
}

func (a *ChainStats) add(b ChainStats) {
	a.Refused += b.Refused
	a.Errors += b.Errors
	a.ChecksumErrors += b.ChecksumErrors
}

// depotSet is a group of depots serving on ephemeral loopback ports.
type depotSet struct {
	depots []*depot.Server
	lns    []net.Listener
	wg     sync.WaitGroup
}

// listen opens the next depot's listener and returns its endpoint.
func (d *depotSet) listen() (net.Listener, wire.Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, wire.Endpoint{}, err
	}
	d.lns = append(d.lns, ln)
	self, err := wire.ParseEndpoint(ln.Addr().String())
	return ln, self, err
}

// serve builds the depot and runs its accept loop on ln.
func (d *depotSet) serve(ln net.Listener, cfg depot.Config) error {
	srv, err := depot.New(cfg)
	if err != nil {
		return err
	}
	d.depots = append(d.depots, srv)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = srv.Serve(ln) // returns when Close shuts the listener
	}()
	return nil
}

// Stats sums the depots' counters.
func (d *depotSet) Stats() ChainStats {
	var out ChainStats
	for _, srv := range d.depots {
		s := srv.Stats()
		out.add(ChainStats{Refused: s.Refused, Errors: s.Errors, ChecksumErrors: s.ChecksumErrors})
	}
	return out
}

// Close drains every depot, closes the listeners and waits for the
// accept loops. It reports whether every depot drained in time.
func (d *depotSet) Close() bool {
	ok := true
	for _, srv := range d.depots {
		if !srv.Shutdown(5 * time.Second) {
			ok = false
		}
	}
	for _, ln := range d.lns {
		ln.Close()
	}
	d.wg.Wait()
	return ok
}

// Chain is a running depot chain.
type Chain struct {
	depotSet
	route []wire.Endpoint
	sink  wire.Endpoint
	cache *cache.Cache
}

// NewChain listens on an ephemeral loopback port per depot and serves.
func NewChain(cfg ChainConfig) (*Chain, error) {
	sink, err := wire.ParseEndpoint(cfg.SinkAddr)
	if err != nil {
		return nil, fmt.Errorf("sink address: %w", err)
	}
	c := &Chain{sink: sink}
	for hop := 1; hop <= cfg.Hops; hop++ {
		ln, self, err := c.listen()
		if err != nil {
			c.Close()
			return nil, err
		}
		dc := depot.Config{
			Self:     self,
			Dial:     tcpDialer,
			MaxHops:  16,
			Metrics:  cfg.Obs.registry(),
			Trace:    cfg.Obs.sink(),
			Sessions: cfg.Obs.table(),
		}
		if cfg.FairShare {
			dc.FairShare = fairshare.New(fairshare.Config{})
		}
		if cfg.CacheBytes > 0 && hop == 1 {
			c.cache, err = cache.New(cache.Config{MemoryBytes: cfg.CacheBytes, Metrics: cfg.Obs.registry()})
			if err != nil {
				c.Close()
				return nil, err
			}
			dc.Cache = c.cache
		}
		if cfg.Corrupt > 0 && hop == 2 {
			dc.Faults = depot.NewFaultInjector()
			dc.Faults.CorruptAfter(cfg.Corrupt)
		}
		if err := c.serve(ln, dc); err != nil {
			c.Close()
			return nil, err
		}
		c.route = append(c.route, self)
	}
	return c, nil
}

// DropCached forgets a cached object so the next session carrying its
// digest is forwarded (and tapped) again instead of short-circuited.
func (c *Chain) DropCached(d Digest) {
	if c.cache != nil {
		c.cache.Drop(d)
	}
}

// SessionOpts are the header options a source puts on a session.
type SessionOpts struct {
	Checksum bool    // CRC-32C chunk framing, verified and re-stamped per hop
	Digest   *Digest // whole-object digest, forwarded untouched
	Weight   int     // fair-share weight (0 = none carried)
}

// Source is the initiator's end of an open session.
type Source struct {
	sess *lsl.Session
	w    io.Writer
}

// Open starts a session from client to the sink through the chain. The
// client index rides in the source endpoint's port, which is how the
// sink tells concurrent clients apart.
func (c *Chain) Open(client int, o SessionOpts) (*Source, error) {
	src := wire.Endpoint{IP: [4]byte{127, 0, 0, 1}, Port: uint16(client + 1)}
	var opts []wire.Option
	if o.Checksum {
		opts = append(opts, wire.ChunkChecksumOption())
	}
	if o.Digest != nil {
		opts = append(opts, wire.ContentDigestOption(*o.Digest))
	}
	if o.Weight > 0 {
		opts = append(opts, wire.SessionWeightOption(uint16(o.Weight)))
	}
	sess, err := lsl.Open(tcpDialer, src, c.sink, c.route, opts...)
	if err != nil {
		return nil, err
	}
	s := &Source{sess: sess, w: sess}
	if o.Checksum {
		s.w = wire.NewFrameWriter(sess)
	}
	return s, nil
}

func (s *Source) Write(p []byte) (int, error) { return s.w.Write(p) }
func (s *Source) Close() error                { return s.sess.Close() }
func (s *Source) ID() [16]byte                { return s.sess.ID() }

// Incoming is the sink's end of an accepted session.
type Incoming struct {
	io.Reader // the payload, de-framed when the session is checksummed
	Client    int
	ID        [16]byte
	Digest    Digest
	HasDigest bool
	conn      net.Conn
}

// AcceptSession reads the session header off a just-accepted
// connection. It closes conn on error.
func AcceptSession(conn net.Conn) (*Incoming, error) {
	sess, err := lsl.Accept(conn)
	if err != nil {
		return nil, err
	}
	in := &Incoming{Reader: sess, Client: int(sess.Header.Src.Port) - 1, ID: sess.ID(), conn: conn}
	if sess.Header.Checksummed() {
		in.Reader = wire.NewFrameReader(sess)
	}
	in.Digest, in.HasDigest = sess.Header.ContentDigest()
	return in, nil
}

func (in *Incoming) Close() error { return in.conn.Close() }

// MemPump is one depot driven through Server.Handle over in-memory
// pipes: the pump and the header path with no kernel socket under them.
type MemPump struct {
	srv  *depot.Server
	dial lsl.Dialer
	self wire.Endpoint
	sink wire.Endpoint
	done chan int64
}

// NewMemPump wires source → depot → draining sink with net.Pipe.
func NewMemPump() (*MemPump, error) {
	m := &MemPump{
		self: wire.MustEndpoint("10.0.0.1:7411"),
		sink: wire.MustEndpoint("10.0.0.2:7411"),
		done: make(chan int64, 1),
	}
	srv, err := depot.New(depot.Config{
		Self: m.self,
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) {
			near, far := net.Pipe()
			go func() {
				defer far.Close()
				sess, err := lsl.Accept(far)
				if err != nil {
					m.done <- -1
					return
				}
				n, _ := io.Copy(io.Discard, sess)
				m.done <- n
			}()
			return near, nil
		}),
	})
	if err != nil {
		return nil, err
	}
	m.srv = srv
	m.dial = lsl.DialerFunc(func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go srv.Handle(far)
		return near, nil
	})
	return m, nil
}

// Send pushes payload through the depot and returns the bytes the sink
// drained.
func (m *MemPump) Send(payload []byte) (int64, error) {
	sess, err := lsl.Open(m.dial, wire.MustEndpoint("10.0.0.3:1"), m.sink, []wire.Endpoint{m.self})
	if err != nil {
		return 0, err
	}
	if _, err := sess.Write(payload); err != nil {
		sess.Close()
		<-m.done
		return 0, err
	}
	if err := sess.Close(); err != nil {
		<-m.done
		return 0, err
	}
	return <-m.done, nil
}

// Close drains the depot.
func (m *MemPump) Close() { m.srv.Shutdown(5 * time.Second) }

// ---- emulated WAN ----

// WAN modes, in the round-robin order emu-wan-mix runs them.
var wanModes = []string{"planned", "reliable", "striped", "multipath", "cached"}

const (
	wanStripes   = 4
	wanPaths     = 2
	wanCatalogue = 4
)

// wanConfig is the emulated deployment every WAN rung and workload
// builds. At the default 8 priming samples the measurement noise a seed
// draws flips the planner between UCSB→Houston→UIUC and a four-host
// route (16 of 40 seeds), and every figure with it; at 512 the forecasts
// have converged and 300 of 300 seeds plan the same routes.
func wanConfig(seed int64, o *Observed) core.Config {
	return core.Config{
		TimeScale:    0.1,
		Integrity:    true,
		CacheBytes:   64 << 20,
		PrimeSamples: 512,
		Seed:         seed,
		Metrics:      o.registry(),
		Trace:        o.sink(),
		Sessions:     o.table(),
	}
}

// WAN is the in-process deployment over the emulated TwoPath network.
type WAN struct {
	sys       *core.System
	pol       core.RecoveryPolicy
	catalogue []wire.SessionID // wanCatalogue objects plus one warm-up object
	capacity  float64          // bytes per emulated second
}

// WANResult reports one verified transfer.
type WANResult struct {
	Bytes       int64
	Elapsed     time.Duration // emulated
	CachedBytes int64
}

// NewWAN builds core.NewSystem(topo.TwoPath(), wanConfig) and finds the
// bottleneck capacity of the planner's single minimax route UCSB→UIUC.
func NewWAN(seed int64, o *Observed) (*WAN, error) {
	sys, err := core.NewSystem(topo.TwoPath(), wanConfig(seed, o))
	if err != nil {
		return nil, err
	}
	w := &WAN{sys: sys, pol: core.DefaultRecovery()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i <= wanCatalogue; i++ {
		var id wire.SessionID
		rng.Read(id[:])
		w.catalogue = append(w.catalogue, id)
	}
	path, err := sys.PlannedPath(topo.UCSB, topo.UIUC)
	if err != nil {
		sys.Close()
		return nil, err
	}
	for i := 0; i+1 < len(path); i++ {
		l := sys.Topo.Link(sys.Topo.MustHost(path[i]), sys.Topo.MustHost(path[i+1]))
		if w.capacity == 0 || l.Capacity < w.capacity {
			w.capacity = l.Capacity
		}
	}
	return w, nil
}

// BottleneckCapacity is the smallest link capacity on the planned
// route, in bytes per emulated second.
func (w *WAN) BottleneckCapacity() float64 { return w.capacity }

// Transfer moves size bytes UCSB→UIUC in the given mode. Object obj of
// the catalogue names the payload of a cached transfer; obj ==
// wanCatalogue is the warm-up object. The engine verifies the pattern
// and the digest at the sink; a short count is reported as an error
// here.
func (w *WAN) Transfer(mode, obj int, size int64) (WANResult, error) {
	var (
		res    core.TransferResult
		cached int64
		err    error
	)
	switch wanModes[mode] {
	case "planned":
		res, err = w.sys.Transfer(topo.UCSB, topo.UIUC, size)
	case "reliable":
		res, err = w.sys.TransferReliable(topo.UCSB, topo.UIUC, size, w.pol)
	case "striped":
		res, err = w.sys.TransferStriped(topo.UCSB, topo.UIUC, size, wanStripes, w.pol)
	case "multipath":
		var mp core.MultipathResult
		mp, err = w.sys.TransferMultipath(topo.UCSB, topo.UIUC, size, wanPaths, w.pol)
		res = mp.TransferResult
	case "cached":
		var cr core.CachedResult
		cr, err = w.sys.TransferCached(topo.UCSB, topo.UIUC, w.catalogue[obj], size, w.pol)
		res, cached = cr.TransferResult, cr.CachedBytes
	}
	if err != nil {
		return WANResult{}, err
	}
	if res.Bytes != size {
		return WANResult{}, fmt.Errorf("%s transfer delivered %d of %d bytes", wanModes[mode], res.Bytes, size)
	}
	return WANResult{Bytes: res.Bytes, Elapsed: res.Elapsed, CachedBytes: cached}, nil
}

// Close shuts the system's listeners.
func (w *WAN) Close() { w.sys.Close() }

// NewSystemOnce builds and closes one emulated deployment.
func NewSystemOnce(seed int64) error {
	sys, err := core.NewSystem(topo.TwoPath(), wanConfig(seed, nil))
	if err != nil {
		return err
	}
	sys.Close()
	return nil
}

// ---- control plane ----

const (
	ctlRealDepots = 16
	ctlLoadDrift  = 0.08
	ctlPrime      = 3
)

// ControlPlane is a controller over a 142-host PlanetLab-like mesh of
// which ctlRealDepots members are real table-driven loopback depots.
type ControlPlane struct {
	depotSet
	topo  *topo.Topology
	rng   *rand.Rand
	ctl   *ctl.Controller
	pairs int
}

// RoundInfo is what one verified control round did.
type RoundInfo struct {
	Probes, Pushed, PushErrors int
}

// NewControlPlane generates the topology from seed, primes a planner,
// starts the depots and registers every host with the controller.
func NewControlPlane(seed int64, o *Observed) (*ControlPlane, error) {
	t := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	t.EnableLoadDrift(ctlLoadDrift)
	p, err := schedule.NewPlanner(t, schedule.DefaultEpsilon)
	if err != nil {
		return nil, err
	}
	cp := &ControlPlane{topo: t, rng: rand.New(rand.NewSource(seed)), pairs: t.N() * (t.N() - 1)}
	if err := p.Prime(cp.rng, ctlPrime); err != nil {
		return nil, err
	}
	index := make(map[string]int, t.N())
	for i, name := range t.HostNames() {
		index[name] = i
	}
	cp.ctl, err = ctl.New(ctl.Config{
		Planner: p,
		Self:    wire.MustEndpoint("127.0.0.1:1"),
		Dial:    tcpDialer,
		Probe: func(src, dst string) (float64, error) {
			return t.MeasuredBW(index[src], index[dst], cp.rng), nil
		},
		// The mesh runs no caches; answering as a cacheless depot would
		// keeps the inventory poll off the 126 address-only members.
		Inventory: func(string) ([]wire.ContentDigest, error) { return nil, lsl.ErrRefused },
		Metrics:   o.registry(),
		Trace:     o.sink(),
	})
	if err != nil {
		return nil, err
	}
	for i, name := range t.HostNames() {
		addr := wire.Endpoint{IP: [4]byte{10, byte(i / 200), byte(i%200 + 1), 1}, Port: 7411}
		if i < ctlRealDepots {
			var ln net.Listener
			var err error
			if ln, addr, err = cp.listen(); err == nil {
				err = cp.serve(ln, depot.Config{
					Self: addr, Dial: tcpDialer, AcceptControl: true, TableDriven: true, MaxHops: 16,
					Metrics: o.registry(), Trace: o.sink(), Sessions: o.table(),
				})
			}
			if err != nil {
				cp.Close()
				return nil, err
			}
		}
		if err := cp.ctl.Register(name, addr, i < ctlRealDepots); err != nil {
			cp.Close()
			return nil, err
		}
	}
	return cp, nil
}

// Round runs one probe → replan → diff → push cycle and checks its
// outputs: every pair probed, no probe or push failed, and every depot
// holds a table no newer than the round's epoch, with as many depots at
// that epoch as the round says it pushed.
func (cp *ControlPlane) Round() (RoundInfo, error) {
	rep, err := cp.ctl.Round(context.Background())
	info := RoundInfo{Probes: rep.Probes, Pushed: rep.Pushed, PushErrors: rep.PushErrors}
	if err != nil {
		return info, err
	}
	if rep.Probes != cp.pairs || rep.ProbeErrors != 0 {
		return info, fmt.Errorf("round probed %d of %d pairs, %d errors", rep.Probes, cp.pairs, rep.ProbeErrors)
	}
	if rep.PushErrors != 0 {
		return info, fmt.Errorf("round had %d push errors", rep.PushErrors)
	}
	atEpoch := 0
	for _, d := range cp.depots {
		switch e := d.RouteEpoch(); {
		case e > rep.Epoch:
			return info, fmt.Errorf("depot at epoch %d, controller at %d", e, rep.Epoch)
		case e == rep.Epoch && d.RouteCount() > 0:
			atEpoch++
		}
	}
	if atEpoch < rep.Pushed {
		return info, fmt.Errorf("round pushed %d tables, %d depots hold epoch %d", rep.Pushed, atEpoch, rep.Epoch)
	}
	return info, nil
}

// PayloadBytes is the measurement matrix one round ingests: one
// float64 reading per ordered host pair.
func (cp *ControlPlane) PayloadBytes() int64 { return int64(cp.pairs) * 8 }

// Advance moves the topology's load walk one step, as time passing
// between rounds does.
func (cp *ControlPlane) Advance() { cp.topo.AdvanceLoad(cp.rng) }

// ---- ladder rungs: tight loops over public functions ----

// MicroOp is one rung: Op performs a single iteration on inputs built
// beforehand; Bytes is the payload an iteration moves (0 when the rung
// is not a throughput rung).
type MicroOp struct {
	Name  string
	Bytes int64
	Op    func() error
	Close func()
}

// discard is io.Discard without its ReadFrom: io.Copy into it reads in
// the 32 KiB chunks the depot pump uses, not io.Discard's 8 KiB.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// MicroOps builds every rung's inputs from seed.
func MicroOps(seed int64) ([]MicroOp, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []MicroOp
	add := func(name string, bytes int64, op func() error) {
		ops = append(ops, MicroOp{Name: name, Bytes: bytes, Op: op})
	}

	// wire: a header as a 3-hop session carries it, and 1 MiB of frames.
	mb := make([]byte, 1<<20)
	rng.Read(mb)
	var sid wire.SessionID
	rng.Read(sid[:])
	var tid wire.TraceID
	rng.Read(tid[:])
	hdr := &wire.Header{
		Version: wire.Version1, Type: wire.TypeData, Session: sid,
		Src: wire.MustEndpoint("127.0.0.1:1"), Dst: wire.MustEndpoint("127.0.0.1:7414"),
		Options: []wire.Option{
			wire.SourceRouteOption([]wire.Endpoint{
				wire.MustEndpoint("127.0.0.1:7411"), wire.MustEndpoint("127.0.0.1:7412"), wire.MustEndpoint("127.0.0.1:7413"),
			}),
			wire.TraceIDOption(tid),
			wire.ContentDigestOption(MintDigest(mb)),
		},
	}
	hdrBytes, err := hdr.MarshalBinary()
	if err != nil {
		return nil, err
	}
	add("wire.header_marshal", 0, func() error {
		_, err := hdr.MarshalBinary()
		return err
	})
	add("wire.header_parse", 0, func() error {
		var h wire.Header
		return h.UnmarshalBinary(hdrBytes)
	})
	var framed bytes.Buffer
	if _, err := wire.NewFrameWriter(&framed).Write(mb); err != nil {
		return nil, err
	}
	add("wire.frame_encode", 1<<20, func() error {
		_, err := wire.NewFrameWriter(discard{}).Write(mb)
		return err
	})
	add("wire.frame_verify", 1<<20, func() error {
		_, err := io.Copy(discard{}, wire.NewVerifyingReader(bytes.NewReader(framed.Bytes())))
		return err
	})
	add("wire.frame_decode", 1<<20, func() error {
		n, err := io.Copy(discard{}, wire.NewFrameReader(bytes.NewReader(framed.Bytes())))
		if err == nil && n != 1<<20 {
			err = fmt.Errorf("decoded %d bytes", n)
		}
		return err
	})

	add("bufpool.getput", 0, func() error {
		bufpool.Put(bufpool.Get())
		return nil
	})

	// fairshare: one chunk of credit, alone and beside a second flow.
	one := fairshare.New(fairshare.Config{}).Join(1)
	add("fairshare.acquire", 0, func() error {
		one.Acquire(bufpool.ChunkSize)
		return nil
	})
	two := fairshare.New(fairshare.Config{})
	heavy, light := two.Join(2), two.Join(1)
	turn := 0
	add("fairshare.acquire_2flows", 0, func() error {
		if turn++; turn%3 == 0 {
			light.Acquire(bufpool.ChunkSize)
		} else {
			heavy.Acquire(bufpool.ChunkSize)
		}
		return nil
	})

	// depot: the pattern generator and checker the emulated transfers use.
	add("depot.pattern_fill", 1<<20, func() error {
		depot.FillPattern(mb, sid, 0)
		return nil
	})
	pat := make([]byte, 1<<20)
	depot.FillPattern(pat, sid, 0)
	add("depot.pattern_verify", 1<<20, func() error { return depot.VerifyPattern(pat, sid, 0) })
	add("depot.pattern_digest", 8<<20, func() error {
		if d := depot.PatternDigest(sid, 8<<20); d.Size != 8<<20 {
			return errors.New("pattern digest size")
		}
		return nil
	})

	// cache: an 8 MiB object put span by span, then read back whole.
	obj := make([]byte, 8<<20)
	rng.Read(obj)
	key := MintDigest(obj)
	cc, err := cache.New(cache.Config{MemoryBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	add("cache.put", 8<<20, func() error {
		cc.Drop(key)
		for off := 0; off < len(obj); off += 1 << 20 {
			if err := cc.Put(key, int64(off), obj[off:off+1<<20]); err != nil {
				return err
			}
		}
		return nil
	})
	add("cache.read", 8<<20, func() error {
		rc, err := cc.Open(key, wire.ByteRange{Off: 0, Len: int64(len(obj))})
		if err != nil {
			return err
		}
		n, err := io.Copy(discard{}, rc)
		rc.Close()
		if err == nil && n != int64(len(obj)) {
			err = fmt.Errorf("cache served %d bytes", n)
		}
		return err
	})

	// emu: an unpaced connection and the dial handshake.
	nw := emu.NewNetwork(1)
	nw.SetDefaultLink(emu.LinkProps{Window: 4 << 20})
	eln, err := nw.Listen("sink:1")
	if err != nil {
		return nil, err
	}
	const emuBlock = 4 << 20
	drained := make(chan int64)
	var emuWG sync.WaitGroup
	emuWG.Add(1)
	go func() {
		defer emuWG.Done()
		for {
			conn, err := eln.Accept()
			if err != nil {
				return
			}
			n, _ := io.Copy(discard{}, conn)
			conn.Close()
			drained <- n
		}
	}()
	add("emu.conn", emuBlock, func() error {
		conn, err := nw.Dial("src", "sink:1")
		if err != nil {
			return err
		}
		for off := 0; off < emuBlock; off += len(mb) {
			if _, err := conn.Write(mb); err != nil {
				conn.Close()
				<-drained
				return err
			}
		}
		conn.Close()
		if n := <-drained; n != emuBlock {
			return fmt.Errorf("emu conn drained %d bytes", n)
		}
		return nil
	})
	add("emu.dial", 0, func() error {
		conn, err := nw.Dial("src", "sink:1")
		if err != nil {
			return err
		}
		conn.Close()
		<-drained
		return nil
	})
	ops[len(ops)-1].Close = func() {
		eln.Close()
		emuWG.Wait()
	}

	// graph / nws / schedule: the planner's units of work at 142 hosts.
	t := topo.PlanetLab(topo.DefaultPlanetLab(), seed)
	p, err := schedule.NewPlanner(t, schedule.DefaultEpsilon)
	if err != nil {
		return nil, err
	}
	if err := p.Prime(rng, ctlPrime); err != nil {
		return nil, err
	}
	if err := p.Replan(); err != nil {
		return nil, err
	}
	g := p.Graph()
	n := t.N()
	k := 0
	add("graph.minimax_tree_142", 0, func() error {
		k++
		if tree := graph.MinimaxTree(g, graph.NodeID(k%n), schedule.DefaultEpsilon); tree.Root < 0 {
			return errors.New("bad tree")
		}
		return nil
	})
	names := t.HostNames()
	mon, err := nws.NewMonitor(names, nws.DefaultBank)
	if err != nil {
		return nil, err
	}
	add("nws.observe", 0, func() error {
		k++
		return mon.Observe(names[k%n], names[(k+1)%n], 1e6+float64(k%97))
	})
	add("schedule.replan_142", 0, p.Replan)
	add("schedule.path", 0, func() error {
		k++
		_, err := p.Path(k%n, (k*7+1)%n)
		return err
	})
	add("schedule.route_table", 0, func() error {
		k++
		_, err := p.RouteTable(k % n)
		return err
	})
	add("schedule.disjoint_paths", 0, func() error {
		k++
		src, dst := k%n, (k*7+1)%n
		if src == dst {
			dst = (dst + 1) % n
		}
		_, err := p.DisjointPaths(src, dst, wanPaths)
		return err
	})

	// obs: one event into the collector the traced runs use.
	col := obs.NewCollector(0)
	ev := obs.Event{Session: sid.String(), Trace: tid.String(), Hop: 1, Kind: obs.KindAccept, Node: "127.0.0.1:7411"}
	add("obs.emit", 0, func() error {
		obs.Emit(col, ev)
		return nil
	})
	ops[len(ops)-1].Close = col.Close

	add("core.newsystem", 0, func() error { return NewSystemOnce(seed) })
	return ops, nil
}
