package main

import (
	"fmt"
	"time"
)

// ladder.go is the traced run: the named workload once with every
// observability sink installed and spans recorded around the
// benchmark's own calls, then the cost ladder — tight loops over public
// functions and short loopback runs with one stage toggled at a time.
// It is separate from the end-to-end run and a quarter of its op count.

// tracedResult is what the traced run hands to output.
type tracedResult struct {
	pass    runResult
	metrics map[string]float64
	tracers []*tracer
}

// rung sizes at scale 1 (-seconds 20).
const (
	rungBulkOps   = 16   // × 64 MiB per one-stage bulk rung
	rungSmallOps  = 3000 // × 4 KiB per small-session rung
	rungSplitOps  = 64   // × 8 MiB, two weighted clients
	rungModeOps   = 3    // × 8 MiB per Transfer mode
	rungCtlRounds = 6
	rungMicroTime = 60 * time.Millisecond

	rungBulkBytes  = 64 << 20
	rungSmallBytes = 4 << 10
)

// ladder carries what the rungs share.
type ladder struct {
	seed    int64
	scale   float64
	m       map[string]float64
	depots  ChainStats // summed over every depot the run built
	tracers []*tracer
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// taxPct is how much more time per byte a run took than its baseline.
func taxPct(base, with window) float64 { return (base.mbps()/with.mbps() - 1) * 100 }

// tracedRun produces every per-layer metric.
func tracedRun(spec workloadSpec, seed int64, scale float64) (tracedResult, error) {
	l := &ladder{seed: seed, scale: scale, m: map[string]float64{}}

	// The named workload, traced.
	o := NewObserved()
	tr := newTracer(spec.Name)
	pass, err := runWorkload(spec, runOpts{seed: seed, scale: scale / 4, setups: 1, obs: o, tr: tr})
	o.Close()
	if err != nil {
		return tracedResult{}, err
	}
	l.tracers = append(l.tracers, tr)
	l.depots.add(pass.chain)
	l.m["proc.peak_rss_MB"] = float64(pass.peakRSS) / 1e6
	l.m["proc.alloc_MB_per_GB"] = float64(pass.allocated) / 1e6 / (float64(pass.bytes) / 1e9)
	l.m["proc.allocs_per_op"] = float64(pass.mallocs) / float64(pass.ops)
	l.m["proc.gc_cpu_frac"] = gcCPUFraction()
	l.m["proc.sys_cpu_frac"] = pass.cpu.sys.Seconds() / pass.cpu.total().Seconds()
	l.m["proc.leaked_goroutines"] = float64(pass.leaked)

	for _, section := range []func() error{l.tightLoops, l.memPump, func() error { return l.loopback(tr) }, l.engine, l.control} {
		if err := section(); err != nil {
			return tracedResult{}, err
		}
	}
	l.m["depot.refused"] = float64(l.depots.Refused)
	l.m["depot.errors"] = float64(l.depots.Errors)
	return tracedResult{pass: pass, metrics: l.m, tracers: l.tracers}, nil
}

func (l *ladder) microTime() time.Duration { return time.Duration(float64(rungMicroTime) * l.scale) }

// tightLoops times the adapter's single-function rungs.
func (l *ladder) tightLoops() error {
	micro, err := MicroOps(l.seed)
	if err != nil {
		return err
	}
	r := map[string]measured{}
	for _, op := range micro {
		got, err := measureOp(op.Op, op.Bytes, l.microTime(), 3)
		if op.Close != nil {
			op.Close()
		}
		if err != nil {
			return fmt.Errorf("rung %s: %w", op.Name, err)
		}
		r[op.Name] = got
	}
	const mib = float64(1<<20) / 1e6
	m := l.m
	m["wire.header_marshal_ns"] = r["wire.header_marshal"].nsPerOp
	m["wire.header_parse_ns"] = r["wire.header_parse"].nsPerOp
	m["wire.header_allocs"] = r["wire.header_marshal"].allocsPerOp + r["wire.header_parse"].allocsPerOp
	m["wire.frame_encode_MBps"] = r["wire.frame_encode"].mbps
	m["wire.frame_verify_MBps"] = r["wire.frame_verify"].mbps
	m["wire.frame_decode_MBps"] = r["wire.frame_decode"].mbps
	m["wire.frame_allocs_per_MB"] = (r["wire.frame_encode"].allocsPerOp + r["wire.frame_verify"].allocsPerOp + r["wire.frame_decode"].allocsPerOp) / mib
	m["bufpool.getput_ns"] = r["bufpool.getput"].nsPerOp
	m["fairshare.acquire_ns"] = r["fairshare.acquire"].nsPerOp
	m["fairshare.acquire_ns_2flows"] = r["fairshare.acquire_2flows"].nsPerOp
	m["depot.pattern_fill_MBps"] = r["depot.pattern_fill"].mbps
	m["depot.pattern_verify_MBps"] = r["depot.pattern_verify"].mbps
	m["depot.pattern_digest_MBps"] = r["depot.pattern_digest"].mbps
	m["cache.put_MBps"] = r["cache.put"].mbps
	m["cache.read_MBps"] = r["cache.read"].mbps
	m["emu.conn_MBps"] = r["emu.conn"].mbps
	m["emu.dial_us"] = r["emu.dial"].nsPerOp / 1e3
	m["graph.minimax_tree_142_us"] = r["graph.minimax_tree_142"].nsPerOp / 1e3
	m["nws.observe_ns"] = r["nws.observe"].nsPerOp
	m["schedule.replan_142_ms"] = r["schedule.replan_142"].nsPerOp / 1e6
	m["schedule.path_us"] = r["schedule.path"].nsPerOp / 1e3
	m["schedule.route_table_us"] = r["schedule.route_table"].nsPerOp / 1e3
	m["schedule.disjoint_paths_us"] = r["schedule.disjoint_paths"].nsPerOp / 1e3
	m["obs.emit_ns"] = r["obs.emit"].nsPerOp
	m["core.newsystem_ms"] = r["core.newsystem"].nsPerOp / 1e6
	return nil
}

// memPump is the depot pump with no kernel under it.
func (l *ladder) memPump() error {
	pump, err := NewMemPump()
	if err != nil {
		return err
	}
	defer pump.Close()
	block := payload(l.seed, 16<<20)
	got, err := measureOp(func() error {
		n, err := pump.Send(block)
		if err == nil && n != int64(len(block)) {
			err = fmt.Errorf("drained %d of %d bytes", n, len(block))
		}
		return err
	}, int64(len(block)), l.microTime(), 3)
	if err != nil {
		return fmt.Errorf("rung depot.mem_pump: %w", err)
	}
	l.m["depot.mem_pump_MBps"] = got.mbps
	return nil
}

// chainRun builds one loopback chain, drives ops sessions through it
// and tears it down. A traced run gets sinks and a span tracer of its
// own; both are returned for reading after the sinks have closed.
func (l *ladder) chainRun(label string, cfg tcpConfig, ops int, traced bool) (window, *tracer, *Observed, error) {
	ro := runOpts{seed: l.seed}
	if traced {
		ro.obs, ro.tr = NewObserved(), newTracer(label)
		l.tracers = append(l.tracers, ro.tr)
		defer ro.obs.Close()
	}
	if cfg.clients == 0 {
		cfg.clients = 1
	}
	inst, err := newTCP(cfg, ro)
	if err != nil {
		return window{}, nil, nil, fmt.Errorf("rung %s: %w", label, err)
	}
	for c := 0; c < cfg.clients; c++ {
		inst.op(c, -1) // one warm-up session per client
	}
	w := drive(inst, cfg.clients, ops)
	st, _ := inst.close()
	l.depots.add(st)
	if w.failed > 0 {
		return w, nil, nil, fmt.Errorf("rung %s: %d of %d ops failed: %w", label, w.failed, w.ops, w.firstErr)
	}
	return w, ro.tr, ro.obs, nil
}

// loopback runs the short loopback-TCP rungs. passSpans are the named
// workload's own spans.
func (l *ladder) loopback(passSpans *tracer) error {
	m := l.m
	bulkOps := scaled(rungBulkOps, l.scale, 2)
	smallOps := scaled(rungSmallOps, l.scale, 20)
	bulk, small := payload(l.seed, rungBulkBytes), payload(l.seed, rungSmallBytes)

	// Plain bulk over 0, 1 and 3 depots: the per-hop tax.
	var chain [4]window
	for _, hops := range []int{0, 1, 3} {
		var err error
		if chain[hops], _, _, err = l.chainRun(fmt.Sprintf("chain%d", hops), tcpConfig{hops: hops, block: bulk}, bulkOps, false); err != nil {
			return err
		}
		m[fmt.Sprintf("depot.chain%d_MBps", hops)] = chain[hops].mbps()
	}

	// One depot, one stage toggled at a time.
	for _, st := range []struct {
		name   string
		cfg    tcpConfig
		ops    int
		traced bool
	}{
		{"crc", tcpConfig{checksum: true}, bulkOps, false},
		{"fairshare", tcpConfig{fairShare: true}, bulkOps, false},
		// The tap runs at a tenth of the plain rate: a quarter of the ops.
		{"cachetap", tcpConfig{digest: true, cache: 256 << 20}, scaled(bulkOps, 0.25, 1), false},
		{"obs", tcpConfig{}, bulkOps, true},
	} {
		st.cfg.hops, st.cfg.block = 1, bulk
		w, _, _, err := l.chainRun("stage."+st.name, st.cfg, st.ops, st.traced)
		if err != nil {
			return err
		}
		m["depot.stage_"+st.name+"_tax_pct"] = taxPct(chain[1], w)
	}

	// tcp-bulk and tcp-small again, traced: the overhead of tracing is
	// the difference from the same run with the sinks nil.
	bulkTraced, bulkSpans, bulkObs, err := l.chainRun("tcp-bulk.traced", tcpConfig{hops: 3, block: bulk}, bulkOps, true)
	if err != nil {
		return err
	}
	m["obs.tracing_overhead_pct.tcp-bulk"] = taxPct(chain[3], bulkTraced)
	m["depot.stall_ms_per_GB"] = float64(bulkObs.StallNanos()) / 1e6 / (float64(bulkObs.BytesForwarded()) / 1e9)
	smallPlain, _, _, err := l.chainRun("tcp-small.plain", tcpConfig{hops: 3, block: small}, smallOps, false)
	if err != nil {
		return err
	}
	smallTraced, smallSpans, _, err := l.chainRun("tcp-small.traced", tcpConfig{hops: 3, block: small}, smallOps, true)
	if err != nil {
		return err
	}
	m["obs.tracing_overhead_pct.tcp-small"] = taxPct(smallPlain, smallTraced)

	// A bare listener: what opening and accepting a session costs with
	// no depot between, and the first-byte time the chain's is set against.
	bare, bareSpans, _, err := l.chainRun("lsl.bare", tcpConfig{hops: 0, block: small}, smallOps, true)
	if err != nil {
		return err
	}
	m["lsl.open_us"] = us(bareSpans.median("lsl.open"))
	m["lsl.accept_us"] = us(bareSpans.median("sink.accept"))
	m["lsl.open_allocs"] = float64(bare.mallocs) / float64(bare.ops)
	m["depot.setup_us_per_hop"] = (us(smallSpans.median("chain.first_byte")) - us(bareSpans.median("chain.first_byte"))) / 3

	// Spans of the named workload when it is a loopback one, else of
	// the traced tcp-bulk rung above.
	spans := bulkSpans
	if passSpans.median("lsl.open") > 0 {
		spans = passSpans
	}
	m["span.op_us"] = us(spans.median("op"))
	m["span.lsl_open_us"] = us(spans.median("lsl.open"))
	m["span.src_write_ms"] = us(spans.median("src.write")) / 1e3
	m["span.chain_first_byte_us"] = us(spans.median("chain.first_byte"))
	m["span.sink_read_ms"] = us(spans.median("sink.read")) / 1e3
	m["span.close_to_done_us"] = us(spans.median("close_to_done"))

	// Two weighted clients through scheduled depots: bytes of the
	// weight-2 client over bytes of the weight-1 client.
	split, _, _, err := l.chainRun("fairshare.split", tcpConfig{hops: 3, block: bulk[:8<<20], clients: 2, armed: true}, scaled(rungSplitOps, l.scale, 6), false)
	if err != nil {
		return err
	}
	m["fairshare.split_ratio"] = float64(split.byClient[0]) / float64(split.byClient[1])
	return nil
}

// engine runs the transfer engine over the emulated WAN, one mode at a
// time.
func (l *ladder) engine() error {
	wan, err := NewWAN(l.seed, nil)
	if err != nil {
		return err
	}
	defer wan.Close()
	emu := &emuInstance{wan: wan, size: 8 << 20}
	ops := scaled(rungModeOps, l.scale, 1)
	for mode, name := range wanModes {
		var cached int64
		if name == "cached" {
			// The cold transfer of catalogue object 0; the timed ones
			// repeat it warm.
			if cold := emu.transfer(mode, 0); cold.err != nil {
				return fmt.Errorf("rung core.cached: %w", cold.err)
			}
		}
		cpu0, _ := processCPU()
		var bytes int64
		var elapsed time.Duration
		for k := 0; k < ops; k++ {
			res := emu.transfer(mode, 0)
			if res.err != nil {
				return fmt.Errorf("rung core.%s: %w", name, res.err)
			}
			bytes += res.bytes
			elapsed += res.emu
			cached += res.cached
		}
		cpu1, _ := processCPU()
		l.m["core."+name+".util"] = float64(bytes) / elapsed.Seconds() / wan.BottleneckCapacity()
		l.m["core."+name+".cpu_ms_per_MB"] = cpu1.sub(cpu0).total().Seconds() * 1e3 / (float64(bytes) / 1e6)
		if name == "cached" {
			l.m["cache.hit_ratio"] = float64(cached) / float64(bytes)
		}
	}
	return nil
}

// control runs a few control rounds.
func (l *ladder) control() error {
	cp, err := NewControlPlane(l.seed, nil)
	if err != nil {
		return err
	}
	ctl := &ctlInstance{cp: cp}
	for k := 0; k < 2; k++ {
		ctl.op(0, -1-k)
	}
	rounds := drive(ctl, 1, scaled(rungCtlRounds, l.scale, 2))
	st, _ := ctl.close()
	l.depots.add(st)
	p50, _ := percentile(rounds.latencies, 50)
	l.m["ctl.round_ms"] = us(p50) / 1e3
	l.m["ctl.pushes_per_round"] = float64(rounds.pushes) / float64(rounds.ops)
	l.m["ctl.push_errors"] = float64(rounds.pushErrs)
	return nil
}
