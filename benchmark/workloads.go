package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout bounds the wait for the sink's verdict on one session; a
// failed op is ranked with this latency, so it can never improve a
// percentile.
const opTimeout = 30 * time.Second

// outcome is what one op reports back to the closed loop.
type outcome struct {
	latency time.Duration
	bytes   int64         // payload bytes delivered and verified
	emu     time.Duration // emulated elapsed (emu-wan-mix)
	cached  int64         // bytes a depot cache served (emu-wan-mix)
	pushes  int           // tables pushed (ctl-round-142)
	pushErr int           // table pushes that failed (ctl-round-142)
	err     error
}

// instance is one set-up workload. Ops with i < 0 are warm-up.
type instance interface {
	op(client, i int) outcome
	close() (ChainStats, bool)
}

// runOpts is how a run differs from the workload's spec.
type runOpts struct {
	seed    int64
	scale   float64   // op-count multiplier: -seconds / refSeconds
	setups  int       // 0 = spec.Setups
	obs     *Observed // nil on end-to-end runs
	tr      *tracer   // nil on end-to-end runs
	corrupt int64     // >0: flip a byte at depot 2 after this many payload bytes (self-test)
}

// ---- sink ----

type verdict struct {
	id                                       [16]byte
	ok                                       bool
	err                                      error
	acceptStart, acceptEnd, firstByte, ended time.Time
}

// sinkServer is the receiving application: a bare listener that
// accepts sessions, compares every byte with the block the source
// sends, and hands the verdict to the client that opened the session.
type sinkServer struct {
	ln      net.Listener
	block   []byte
	digest  *Digest // the digest minted in set-up, when sessions carry one
	results []chan verdict
	bufs    sync.Pool
	wg      sync.WaitGroup
}

func newSink(block []byte, digest *Digest, clients int) (*sinkServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sinkServer{ln: ln, block: block, digest: digest}
	size := 256 << 10
	if len(block) < size {
		size = len(block)
	}
	s.bufs.New = func() any { b := make([]byte, size); return &b }
	for i := 0; i < clients; i++ {
		// A failed op can leave a late verdict behind; room for a few
		// keeps the handler from blocking on a client that moved on.
		s.results = append(s.results, make(chan verdict, 4))
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.handle(conn)
		}
	}()
	return s, nil
}

func (s *sinkServer) addr() string { return s.ln.Addr().String() }

func (s *sinkServer) handle(conn net.Conn) {
	defer s.wg.Done()
	v := verdict{acceptStart: time.Now()}
	in, err := AcceptSession(conn)
	if err != nil {
		return // no header, no client to tell: its wait times out
	}
	defer in.Close()
	v.id, v.acceptEnd = in.ID, time.Now()
	bp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bp)
	buf := *bp
	off, same := 0, true
	for {
		n, err := in.Read(buf)
		if n > 0 {
			if off == 0 {
				v.firstByte = time.Now()
			}
			if off+n > len(s.block) || !bytes.Equal(buf[:n], s.block[off:off+n]) {
				same = false
			}
			off += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			v.err = err
			break
		}
	}
	v.ended = time.Now()
	switch {
	case v.err != nil:
	case !same:
		v.err = errors.New("sink: payload differs from the block sent")
	case off != len(s.block):
		v.err = fmt.Errorf("sink: %d of %d bytes", off, len(s.block))
	case s.digest != nil && (!in.HasDigest || in.Digest != *s.digest):
		v.err = errors.New("sink: header digest is not the one minted in set-up")
	default:
		v.ok = true
	}
	if in.Client >= 0 && in.Client < len(s.results) {
		select {
		case s.results[in.Client] <- v:
		default:
		}
	}
}

// wait returns the verdict on session id, skipping leftovers of
// earlier failed ops.
func (s *sinkServer) wait(client int, id [16]byte, timeout time.Duration) (verdict, bool) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case v := <-s.results[client]:
			if v.id == id {
				return v, true
			}
		case <-t.C:
			return verdict{}, false
		}
	}
}

func (s *sinkServer) close() {
	s.ln.Close()
	s.wg.Wait()
}

// ---- tcp-bulk, tcp-small, tcp-armed ----

type tcpInstance struct {
	chain *Chain
	sink  *sinkServer
	block []byte
	opts  []SessionOpts // per client
	tr    *tracer
	drop  *Digest // forget this object in the depot cache after each op
}

// tcpConfig is what distinguishes the loopback workloads and rungs.
type tcpConfig struct {
	hops      int
	block     []byte // the payload of every session
	clients   int
	armed     bool  // CRC frames + digest + weights 2,1,1…
	checksum  bool  // CRC frames only
	digest    bool  // digest only
	fairShare bool  // scheduler on every depot
	cache     int64 // cache on depot 1
}

// payload is the seeded pseudo-random block a source sends.
func payload(seed int64, size int64) []byte {
	block := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(block)
	return block
}

func newTCP(cfg tcpConfig, o runOpts) (*tcpInstance, error) {
	t := &tcpInstance{block: cfg.block, tr: o.tr}
	var digest *Digest
	if cfg.armed || cfg.digest {
		d := MintDigest(t.block)
		digest = &d
	}
	for c := 0; c < cfg.clients; c++ {
		so := SessionOpts{Checksum: cfg.armed || cfg.checksum, Digest: digest}
		if cfg.armed {
			so.Weight = 1
			if c == 0 {
				so.Weight = 2
			}
		}
		t.opts = append(t.opts, so)
	}
	if cfg.cache > 0 {
		t.drop = digest
	}
	var err error
	if t.sink, err = newSink(t.block, digest, cfg.clients); err != nil {
		return nil, err
	}
	t.chain, err = NewChain(ChainConfig{Hops: cfg.hops, SinkAddr: t.sink.addr(), FairShare: cfg.armed || cfg.fairShare,
		CacheBytes: cfg.cache, Corrupt: o.corrupt, Obs: o.obs})
	if err != nil {
		t.sink.close()
		return nil, err
	}
	return t, nil
}

func (t *tcpInstance) op(client, i int) outcome {
	start := time.Now()
	src, err := t.chain.Open(client, t.opts[client])
	opened := time.Now()
	if err != nil {
		return outcome{latency: opened.Sub(start), err: err}
	}
	_, werr := src.Write(t.block)
	written := time.Now()
	cerr := src.Close()
	closed := time.Now()
	timeout := opTimeout
	if werr != nil || cerr != nil {
		timeout = 2 * time.Second // the chain broke; the sink may never hear of it
	}
	v, heard := t.sink.wait(client, src.ID(), timeout)
	done := time.Now()
	out := outcome{latency: done.Sub(start)}
	switch {
	case werr != nil:
		out.err = fmt.Errorf("write: %w", werr)
	case cerr != nil:
		out.err = fmt.Errorf("close: %w", cerr)
	case !heard:
		out.err = errors.New("sink never reported the session")
	case !v.ok:
		out.err = v.err
	default:
		out.bytes = int64(len(t.block))
	}
	if t.drop != nil {
		t.chain.DropCached(*t.drop)
	}
	if t.tr != nil && i >= 0 {
		t.tr.add("op", "", i, client, start, done)
		t.tr.add("lsl.open", "op", i, client, start, opened)
		t.tr.add("src.write", "op", i, client, opened, written)
		t.tr.add("close_to_done", "op", i, client, closed, done)
		if heard {
			t.tr.add("sink.accept", "op", i, client, v.acceptStart, v.acceptEnd)
			t.tr.add("sink.read", "sink.accept", i, client, v.acceptEnd, v.ended)
			if !v.firstByte.IsZero() {
				t.tr.add("chain.first_byte", "op", i, client, start, v.firstByte)
			}
		}
	}
	return out
}

func (t *tcpInstance) close() (ChainStats, bool) {
	st := t.chain.Stats()
	ok := t.chain.Close()
	t.sink.close()
	return st, ok
}

// ---- emu-wan-mix ----

type emuInstance struct {
	wan  *WAN
	size int64
	tr   *tracer
}

// transfer moves one object in the given mode.
func (e *emuInstance) transfer(mode, obj int) outcome {
	start := time.Now()
	res, err := e.wan.Transfer(mode, obj, e.size)
	return outcome{latency: time.Since(start), bytes: res.Bytes, emu: res.Elapsed, cached: res.CachedBytes, err: err}
}

func (e *emuInstance) op(client, i int) outcome {
	// Round-robin over the modes; every len(wanModes)-th op is a cached
	// transfer, walking the catalogue: each object cold once, then warm.
	// Warm-up ops use an object of their own.
	mode, obj := (-1-i)%len(wanModes), wanCatalogue
	if i >= 0 {
		mode, obj = i%len(wanModes), (i/len(wanModes))%wanCatalogue
	}
	start := time.Now()
	out := e.transfer(mode, obj)
	if e.tr != nil && i >= 0 {
		done := start.Add(out.latency)
		e.tr.add("op", "", i, client, start, done)
		e.tr.add("core.transfer."+wanModes[mode], "op", i, client, start, done)
	}
	return out
}

func (e *emuInstance) close() (ChainStats, bool) {
	e.wan.Close()
	return ChainStats{}, true
}

// ---- ctl-round-142 ----

type ctlInstance struct {
	cp *ControlPlane
	tr *tracer
}

func (c *ctlInstance) op(client, i int) outcome {
	start := time.Now()
	info, err := c.cp.Round()
	done := time.Now()
	c.cp.Advance() // time passes between rounds; not part of the op
	if c.tr != nil && i >= 0 {
		c.tr.add("op", "", i, client, start, done)
		c.tr.add("ctl.round", "op", i, client, start, done)
	}
	out := outcome{latency: done.Sub(start), pushes: info.Pushed, pushErr: info.PushErrors, err: err}
	if err == nil {
		out.bytes = c.cp.PayloadBytes()
	}
	return out
}

func (c *ctlInstance) close() (ChainStats, bool) {
	st := c.cp.Stats()
	return st, c.cp.Close()
}

// build sets one workload up.
func build(spec workloadSpec, o runOpts) (instance, float64, error) {
	const hops = 3
	switch spec.Name {
	case "tcp-bulk", "tcp-small":
		t, err := newTCP(tcpConfig{hops: hops, block: payload(o.seed, spec.OpBytes), clients: spec.Clients}, o)
		return t, 0, err
	case "tcp-armed":
		t, err := newTCP(tcpConfig{hops: hops, block: payload(o.seed, spec.OpBytes), clients: spec.Clients, armed: true}, o)
		return t, 0, err
	case "emu-wan-mix":
		w, err := NewWAN(o.seed, o.obs)
		if err != nil {
			return nil, 0, err
		}
		return &emuInstance{wan: w, size: spec.OpBytes, tr: o.tr}, w.BottleneckCapacity(), nil
	case "ctl-round-142":
		cp, err := NewControlPlane(o.seed, o.obs)
		if err != nil {
			return nil, 0, err
		}
		return &ctlInstance{cp: cp, tr: o.tr}, 0, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q", spec.Name)
}

// ---- the closed loop ----

// window is what a closed loop over one instance measured.
type window struct {
	ops       int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       cpuTimes
	latencies []time.Duration // sorted; a failed op counts as opTimeout
	busy      time.Duration   // Σ op latency over all clients
	bytes     int64
	byClient  []int64
	pushes    int
	pushErrs  int
	mallocs   uint64
	allocated uint64
	peakRSS   int64
	marks     []mark // the window's start, then one per completed segment
}

// segments is how many equal-op slices the timed window is cut into.
// The rate metrics are the median slice's, so a burst of interference
// from outside the process that covers under half the window does not
// move them.
const segments = 10

// mark is the cumulative state of the window when a segment completed.
type mark struct {
	t        time.Time
	cpu      cpuTimes
	okOps    int64
	bytes    int64
	emu      time.Duration
	emuBytes int64
}

// segmentMedian is the median over the window's segments of rate(from,
// to); segments for which rate reports false (nothing to divide by) are
// left out, and with none left the whole window is one segment.
func (w window) segmentMedian(rate func(from, to mark) (float64, bool)) float64 {
	var v []float64
	for k := 1; k < len(w.marks); k++ {
		if r, ok := rate(w.marks[k-1], w.marks[k]); ok {
			v = append(v, r)
		}
	}
	if len(v) == 0 {
		r, _ := rate(w.marks[0], w.marks[len(w.marks)-1])
		return r
	}
	return medianFloat(v)
}

// drive runs ops operations closed-loop: each client starts its next
// op when its previous one has completed, taking op numbers from one
// shared counter.
func drive(inst instance, clients, ops int) window {
	w := window{ops: ops, byClient: make([]int64, clients)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// A segment holds whole rounds of the mode mix, so that every
	// segment of emu-wan-mix does the same work.
	segOps := ops / segments
	if segOps > len(wanModes) {
		segOps -= segOps % len(wanModes)
	}
	if segOps < 1 {
		segOps = 1
	}
	w.marks = make([]mark, ops/segOps+1)
	cpu0, _ := processCPU()
	start := time.Now()
	w.marks[0] = mark{t: start, cpu: cpu0}
	var next, done, okOps, bytes, emu, emuBytes atomic.Int64
	perClient := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				out := inst.op(c, i)
				perClient[c] = append(perClient[c], out)
				if out.err == nil {
					okOps.Add(1)
					bytes.Add(out.bytes)
					if out.emu > 0 {
						emu.Add(int64(out.emu))
						emuBytes.Add(out.bytes)
					}
				}
				// Each count is reached once, so each mark has one writer.
				if n := int(done.Add(1)); n%segOps == 0 {
					cpu, _ := processCPU()
					w.marks[n/segOps] = mark{t: time.Now(), cpu: cpu, okOps: okOps.Load(), bytes: bytes.Load(),
						emu: time.Duration(emu.Load()), emuBytes: emuBytes.Load()}
				}
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	cpu1, rss := processCPU()
	runtime.ReadMemStats(&ms1)
	w.cpu, w.peakRSS = cpu1.sub(cpu0), rss
	w.mallocs, w.allocated = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	for c, outs := range perClient {
		for _, out := range outs {
			w.busy += out.latency
			w.pushErrs += out.pushErr
			if out.err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = out.err
				}
				w.latencies = append(w.latencies, opTimeout)
				continue
			}
			w.latencies = append(w.latencies, out.latency)
			w.bytes += out.bytes
			w.byClient[c] += out.bytes
			w.pushes += out.pushes
		}
	}
	sortDurations(w.latencies)
	return w
}

// mbps is the window's verified payload rate in 1e6 bytes per second.
func (w window) mbps() float64 { return float64(w.bytes) / 1e6 / w.wall.Seconds() }

// runResult is one workload's run: its set-ups, its timed window and
// its teardown.
type runResult struct {
	window
	spec     workloadSpec
	setups   []time.Duration
	capacity float64 // emulated bottleneck, bytes/s; 0 without one
	chain    ChainStats
	drained  bool
	leaked   int
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// runWorkload sets the workload up (several times; set-up time is the
// median), runs its fixed number of ops closed-loop and tears it down.
func runWorkload(spec workloadSpec, o runOpts) (runResult, error) {
	res := runResult{spec: spec}
	warm := spec.Warm
	if o.scale < 1 {
		warm = scaled(spec.Warm, o.scale, 1)
	}
	setups := spec.Setups
	if o.setups > 0 {
		setups = o.setups
	}
	baseline := runtime.NumGoroutine()

	var inst instance
	for r := 0; r < setups; r++ {
		t0 := time.Now()
		var err error
		if inst, res.capacity, err = build(spec, o); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		for k := 0; k < warm; k++ {
			// A corruption self-test may burn its fault in warm-up; only
			// a fault-free chain must warm up clean.
			if out := inst.op(k%spec.Clients, -1-k); out.err != nil && o.corrupt == 0 {
				inst.close()
				return res, fmt.Errorf("%s: warm-up op: %w", spec.Name, out.err)
			}
		}
		runtime.GC()
		res.setups = append(res.setups, time.Since(t0))
		if r < setups-1 {
			inst.close()
		}
	}
	res.window = drive(inst, spec.Clients, scaled(spec.Ops, o.scale, len(wanModes)))
	res.chain, res.drained = inst.close()
	res.leaked = settleGoroutines(baseline)
	return res, nil
}

// endToEnd derives the end-to-end metrics from the timed window. The
// four rates are the median segment's; the latencies rank every op.
func (r runResult) endToEnd() map[string]float64 {
	p50, _ := percentile(r.latencies, 50)
	tail, _ := percentile(r.latencies, r.spec.TailPct)
	wall := func(a, b mark) float64 { return b.t.Sub(a.t).Seconds() }
	cpu := func(a, b mark) float64 { return b.cpu.sub(a.cpu).total().Seconds() }
	m := map[string]float64{
		"setup_s": medianDuration(r.setups).Seconds(),
		"goodput_MBps": r.segmentMedian(func(a, b mark) (float64, bool) {
			return float64(b.bytes-a.bytes) / 1e6 / wall(a, b), wall(a, b) > 0
		}),
		"goodput_MB_per_cpu_s": r.segmentMedian(func(a, b mark) (float64, bool) {
			return float64(b.bytes-a.bytes) / 1e6 / cpu(a, b), cpu(a, b) > 0
		}),
		"ops_per_s": r.segmentMedian(func(a, b mark) (float64, bool) {
			return float64(b.okOps-a.okOps) / wall(a, b), wall(a, b) > 0
		}),
		"cpu_us_per_op": r.segmentMedian(func(a, b mark) (float64, bool) {
			return cpu(a, b) * 1e6 / float64(b.okOps-a.okOps), b.okOps > a.okOps && cpu(a, b) > 0
		}),
		"op_p50_us":  float64(p50.Nanoseconds()) / 1e3,
		"op_tail_us": float64(tail.Nanoseconds()) / 1e3,
	}
	if r.capacity > 0 {
		// The paper's figure: achieved rate as a fraction of the
		// slowest sublink on the planner's route, in emulated time.
		m["bottleneck_util"] = r.segmentMedian(func(a, b mark) (float64, bool) {
			return float64(b.emuBytes-a.emuBytes) / (b.emu - a.emu).Seconds() / r.capacity, b.emu > a.emu
		})
	} else {
		// No stage of a loopback or control workload has a stated
		// capacity but the closed loop itself: the share of the window
		// its clients spent inside ops.
		m["bottleneck_util"] = r.busy.Seconds() / (float64(r.spec.Clients) * r.wall.Seconds())
	}
	return m
}
