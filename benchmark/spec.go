package main

// spec.go names every workload and metric the benchmark emits.
// BENCHMARK.json at the repo root repeats these tables for the driver;
// the smoke test fails when the two disagree.

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with every observability sink nil. The bounds
// are what unpaired runs on the 2-vCPU sandbox can resolve: its speed
// wanders by 10-20 % over minutes, so ten runs of any CPU-bound workload
// spread by 7-14 % of their median (README, "Repeatability"). Only the
// pacing-bound emu-wan-mix repeats within 3 %, which is what
// bottleneck_util's tighter bound rests on. A gain is claimed from
// paired runs, not from these.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_MB_per_cpu_s", Unit: "MB/CPU-s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "bottleneck_util", Unit: "ratio", Better: "higher", Bound: 0.10},
}

// setupFloorS is the absolute part of setup_s's regress rule: a
// difference must exceed both the bound and this many seconds.
const setupFloorS = 0.050

// perLayer is emitted by the traced run. No bound: diagnostics.
var perLayer = []metricSpec{
	{Name: "wire.header_marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.header_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.header_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.frame_encode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_verify_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_allocs_per_MB", Unit: "count", Better: "lower"},
	{Name: "lsl.open_us", Unit: "us", Better: "lower"},
	{Name: "lsl.accept_us", Unit: "us", Better: "lower"},
	{Name: "lsl.open_allocs", Unit: "count", Better: "lower"},
	{Name: "bufpool.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "depot.chain0_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.chain1_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.chain3_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.mem_pump_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.setup_us_per_hop", Unit: "us", Better: "lower"},
	{Name: "depot.stage_crc_tax_pct", Unit: "%", Better: "lower"},
	{Name: "depot.stage_fairshare_tax_pct", Unit: "%", Better: "lower"},
	{Name: "depot.stage_cachetap_tax_pct", Unit: "%", Better: "lower"},
	{Name: "depot.stage_obs_tax_pct", Unit: "%", Better: "lower"},
	{Name: "depot.stall_ms_per_GB", Unit: "ms/GB", Better: "lower"},
	{Name: "depot.refused", Unit: "count", Better: "lower"},
	{Name: "depot.errors", Unit: "count", Better: "lower"},
	{Name: "depot.pattern_fill_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.pattern_verify_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "depot.pattern_digest_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "fairshare.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "fairshare.acquire_ns_2flows", Unit: "ns", Better: "lower"},
	{Name: "fairshare.split_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.put_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "cache.read_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "emu.conn_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "emu.dial_us", Unit: "us", Better: "lower"},
	{Name: "core.newsystem_ms", Unit: "ms", Better: "lower"},
	{Name: "core.planned.util", Unit: "ratio", Better: "higher"},
	{Name: "core.reliable.util", Unit: "ratio", Better: "higher"},
	{Name: "core.striped.util", Unit: "ratio", Better: "higher"},
	{Name: "core.multipath.util", Unit: "ratio", Better: "higher"},
	{Name: "core.cached.util", Unit: "ratio", Better: "higher"},
	{Name: "core.planned.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "core.reliable.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "core.striped.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "core.multipath.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "core.cached.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "graph.minimax_tree_142_us", Unit: "us", Better: "lower"},
	{Name: "nws.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "schedule.replan_142_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.path_us", Unit: "us", Better: "lower"},
	{Name: "schedule.route_table_us", Unit: "us", Better: "lower"},
	{Name: "schedule.disjoint_paths_us", Unit: "us", Better: "lower"},
	{Name: "ctl.round_ms", Unit: "ms", Better: "lower"},
	{Name: "ctl.pushes_per_round", Unit: "count", Better: "lower"},
	{Name: "ctl.push_errors", Unit: "count", Better: "lower"},
	{Name: "obs.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.tracing_overhead_pct.tcp-bulk", Unit: "%", Better: "lower"},
	{Name: "obs.tracing_overhead_pct.tcp-small", Unit: "%", Better: "lower"},
	{Name: "proc.peak_rss_MB", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_MB_per_GB", Unit: "MB/GB", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.sys_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.leaked_goroutines", Unit: "count", Better: "lower"},
	{Name: "span.op_us", Unit: "us", Better: "lower"},
	{Name: "span.lsl_open_us", Unit: "us", Better: "lower"},
	{Name: "span.src_write_ms", Unit: "ms", Better: "lower"},
	{Name: "span.chain_first_byte_us", Unit: "us", Better: "lower"},
	{Name: "span.sink_read_ms", Unit: "ms", Better: "lower"},
	{Name: "span.close_to_done_us", Unit: "us", Better: "lower"},
}

// workloadSpec sizes one workload. Op counts are fixed, not timed, so a
// percentile names the same rank on every commit; they are stated for
// -seconds 20 (refSeconds) and scale linearly with -seconds.
type workloadSpec struct {
	Name    string
	Why     string
	Ops     int     // timed ops at -seconds 20
	Warm    int     // untimed warm-up ops, part of set-up
	Clients int     // concurrent closed-loop clients
	OpBytes int64   // payload bytes per op (0: the instance reports it)
	TailPct float64 // op_tail_us percentile: well over 10 samples beyond it at Ops
	Setups  int     // set-ups per run; setup_s is their median
}

const refSeconds = 20

var workloads = []workloadSpec{
	{
		Name: "tcp-bulk",
		Why:  "64 MiB plain sessions over 3 loopback depots: the pump and kernel copies do the work, open cost is invisible",
		Ops:  256, Warm: 4, Clients: 1, OpBytes: 64 << 20, TailPct: 90, Setups: 5,
	},
	{
		Name: "tcp-small",
		Why:  "4 KiB sessions, one per object, same chain: dial, header and teardown per hop do the work, the pump none",
		Ops:  80000, Warm: 500, Clients: 1, OpBytes: 4 << 10, TailPct: 99, Setups: 5,
	},
	{
		Name: "tcp-armed",
		Why:  "same pump with CRC frames, digest, fair-share gate and 2 weighted clients: a bulk fast path must not cost this one",
		Ops:  192, Warm: 4, Clients: 2, OpBytes: 64 << 20, TailPct: 80, Setups: 5,
	},
	{
		Name: "emu-wan-mix",
		Why:  "all five Transfer modes over the emulated TwoPath WAN: engine, planner, emu, pattern and cache work, no sockets",
		Ops:  200, Warm: 5, Clients: 1, OpBytes: 8 << 20, TailPct: 90, Setups: 3,
	},
	{
		Name: "ctl-round-142",
		Why:  "control rounds over 142 hosts, 16 real depots: nws, graph, schedule, ctl work; no-change case for data-path work",
		Ops:  300, Warm: 20, Clients: 1, TailPct: 90, Setups: 3,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
