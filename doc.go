// Package lsl reproduces "Improving Throughput for Grid Applications
// with Network Logistics" (Martin Swany, SC 2004): the Logistical
// Session Layer — split-TCP forwarding through storage depots "in" the
// network — and the Minimax-Path scheduler that decides when and where
// to relay.
//
// # Package map
//
// The implementation lives under internal/. Each entry names the
// DESIGN.md section that specifies it.
//
// Protocol and data path:
//
//   - internal/wire — the LSL header and TLV option wire format:
//     source routes, hop indexes, resume offsets, stripe annotations
//     (DESIGN.md §7 conventions, §9 resume, §10 striping)
//   - internal/lsl — session establishment over any net.Conn: one
//     Start(Spec) opens data, store, generate, multicast and
//     cache-serve sessions; Open, Fetch and the cache probes sit on it
//     (DESIGN.md §3 inventory, §9)
//   - internal/depot — the forwarding depot server: per-flow pump
//     with bounded occupancy, route tables, pattern generation and
//     verification, fault injection (DESIGN.md §3, §9)
//   - internal/cache — the depot-resident content-addressed chunk
//     cache: CRC-framed byte ranges keyed by content digest, served
//     back to repeat transfers (DESIGN.md §15)
//   - internal/bufpool — pooled fixed-size copy buffers shared by the
//     depot pump, sink read loops, and pattern writers (DESIGN.md §10)
//   - internal/core — top-level façade: an in-process deployment
//     (emulated WAN + depots + planner) with Transfer,
//     TransferReliable, TransferStriped, TransferCached, Multicast,
//     and async store/fetch APIs (DESIGN.md §3, §9, §10, §15)
//   - internal/emu — a real-time emulated WAN (latency, rate, window
//     shaping per connection) for the wire stack (DESIGN.md §3)
//
// Scheduling and forecasting:
//
//   - internal/graph — Minimax-Path trees with ε edge-equivalence,
//     route tables, and baseline schedulers (DESIGN.md §3)
//   - internal/schedule — the NWS-fed planner: Prime/Observe/Replan,
//     PathAvoiding for failover, StripedBottleneck and SuggestStripes
//     for stripe-aware capacity (DESIGN.md §3, §9, §10)
//   - internal/ctl — the distributed control plane: a controller that
//     probes the depot mesh, feeds the forecasters, and pushes
//     epoch-stamped route tables to table-driven depots (DESIGN.md §11)
//   - internal/nws — Network Weather Service-style forecasting
//     (DESIGN.md §6 calibration)
//   - internal/topo — testbed models: two-path, PlanetLab, Abilene
//     core (DESIGN.md §6)
//
// Simulation and evaluation:
//
//   - internal/netsim, internal/tcpsim, internal/pipesim,
//     internal/tcpmodel — the discrete-event TCP and depot-chain
//     simulators behind the paper's evaluation figures (DESIGN.md §4)
//   - internal/workload — transfer request generators for the
//     aggregate evaluation (DESIGN.md §4)
//   - internal/experiments — one entry point per paper table/figure,
//     plus the repository's ablations and the striping sweep
//     (DESIGN.md §4, §5, §10)
//
// Support:
//
//   - internal/retry — transient/fatal error classification and
//     backoff policies (DESIGN.md §9)
//   - internal/obs — live telemetry: trace events, metrics registry,
//     session tables, HTTP endpoints (DESIGN.md §8)
//   - internal/trace — sequence-trace series and rendering
//     (DESIGN.md §8)
//   - internal/simtime — simulated clocks and scaled durations
//     (DESIGN.md §7)
//   - internal/stats — means, quantiles, box statistics (DESIGN.md §4)
//
// The commands under cmd/ (lsl-depot, lsl-xfer, lsl-ctl, lsl-sched,
// lsl-exp) are documented flag by flag in docs/CLI.md;
// docs/ARCHITECTURE.md draws the layer diagram these packages form,
// and docs/OPERATIONS.md is the operator's runbook for a real mesh.
//
// The benchmarks in this directory regenerate every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for the measured results
// and README.md for a tour.
package lsl
