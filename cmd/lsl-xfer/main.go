// Command lsl-xfer moves data over the Logistical Session Layer on
// real TCP sockets. docs/CLI.md documents every flag.
//
// Sender mode pushes pattern data to -to, through a loose source route
// of -via depots (none: direct):
//
//	lsl-xfer -to 198.51.100.9:7411 -via 198.51.100.7:7411,198.51.100.8:7411 -size 64M
//
// Every mode runs on core.Engine, the sender the in-process library
// drives over its emulated network, and completes when the endpoint
// that keeps the data says so, asked in a status session of its own:
// the sink at -to for a send, whose digest mismatch fails it with
// wire.ErrDigest, and the depot at -to for a -store. A retry
// (-retries) resumes at the acked offset. A peer that refuses the query
// or closes it unanswered leaves completion to the send side, logged
// once. A session is bounded by the progress it shows, not its length,
// and ends on an interrupt.
//
// The send modes, mutually exclusive: -stripes N (N parallel chains),
// -multipath K (K ';'-separated -via routes pulling ranges off one work
// queue), -table-driven (one -via entry depot, controller-pushed
// tables), -cached (the last -via depot's cached suffix of the object
// -id names), -store (staged at the depot -to for a later -fetch, whose id
// it prints once the depot holds it all) and -generate (synthesized by
// the first -via depot). -verify-integrity adds CRC-32C chunk frames
// and, unstriped, a whole-object SHA-256 digest the sink checks;
// -weight N asks fair-share depots for N shares; -failover drops the
// -via route after an attempt without progress.
//
// Sink mode reads every session through depot.Sink, which verifies the
// pattern and the integrity options, prints each session's verdict and
// answers senders' status queries:
//
//	lsl-xfer -sink -listen 0.0.0.0:7411 -self 198.51.100.9:7411
//
// Telemetry: -trace-out FILE appends lifecycle events as JSON lines
// (-trace-push ships them to a collector), and -sample INTERVAL prints
// the sequence table of bytes pushed into (or pulled from) the sockets
// — the Figure 5 curve whose knee marks downstream back-pressure.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/trace"
	"github.com/netlogistics/lsl/internal/wire"
)

var (
	to         = flag.String("to", "", "destination ip:port")
	via        = flag.String("via", "", "comma-separated depot ip:port hops (with -multipath: ';'-separated routes, each a comma-separated chain)")
	src        = flag.String("src", "0.0.0.0:0", "source endpoint label carried in the header")
	sizeSpec   = flag.String("size", "16M", "bytes to move (suffixes K, M, G)")
	generate   = flag.Bool("generate", false, "ask the first hop to generate the data")
	store      = flag.Bool("store", false, "store at the destination depot instead of delivering (async mode); prints the session id")
	fetchID    = flag.String("fetch", "", "fetch the stored session with this hex id from -to")
	sink       = flag.Bool("sink", false, "run as a verifying sink instead of a sender")
	listen     = flag.String("listen", "0.0.0.0:7411", "sink: TCP listen address")
	selfAddr   = flag.String("self", "", "sink: public ip:port (required with -sink)")
	traceOut   = flag.String("trace-out", "", "append session trace events to this file as JSON lines")
	tracePush  = flag.String("trace-push", "", "POST batched trace events to this collector ingest URL, e.g. http://ctl:7502/traces/ingest")
	sampleIvl  = flag.Duration("sample", 0, "sample sent/received bytes at this interval and print a sequence table (0 = off)")
	retries    = flag.Int("retries", 0, "retry a failed send (a stripe's or a range's) this many times with backoff, resuming at the sink's acked offset")
	backoff    = flag.Duration("retry-backoff", 500*time.Millisecond, "base delay before the first retry (doubles each retry)")
	failover   = flag.Bool("failover", false, "on retry, abandon the -via depot route and dial -to directly")
	stripesN   = flag.Int("stripes", 1, "send over this many parallel sublinks sharing one session id")
	tableMode  = flag.Bool("table-driven", false, "send with no source route through one -via entry depot; depots route by controller-pushed tables")
	weight     = flag.Int("weight", 1, "fair-share weight (1..65535) carried in the session header; fair-share depots grant bandwidth in proportion")
	verifyInt  = flag.Bool("verify-integrity", false, "send CRC-32C-framed chunks every depot hop verifies; unstriped sends also carry a whole-object SHA-256 digest the sink checks")
	multipathN = flag.Int("multipath", 0, "fan the send across this many ';'-separated -via depot routes sharing one session id (0 = off)")
	cached     = flag.Bool("cached", false, "let only the last -via depot cache the object, probe it, and have it serve its cached suffix toward -to, sending only the cold prefix from here (implies integrity framing)")
	idSpec     = flag.String("id", "", "with -cached, reuse this 32-hex-digit session id so the repeat names the same object (empty = mint a new one)")
)

func main() {
	flag.Parse()
	if *weight < 1 || *weight > 65535 {
		log.Fatalf("lsl-xfer: -weight %d out of range 1..65535", *weight)
	}
	if *idSpec != "" && !*cached {
		log.Fatalf("lsl-xfer: -id only applies to -cached sends")
	}
	// An interrupt ends the send or the sink under way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		log.Fatalf("lsl-xfer: %v", err)
	}
}

// run serves as the sink, or makes one send or fetch under the -sample
// sampler, which counts every byte its connections write and read.
func run(ctx context.Context) error {
	reg := obs.NewRegistry()
	tr, closeTrace, err := obs.OpenTrace(*traceOut, *tracePush, reg)
	if err != nil {
		return err
	}
	defer func() {
		closeTrace()
		if n := reg.Counter(obs.MetricTraceDrops).Value(); n > 0 {
			log.Printf("trace: %d events dropped", n)
		}
	}()
	if *sink {
		return runSink(ctx, tr)
	}
	if *to == "" {
		usage("-to is required")
	}
	dst, err := wire.ParseEndpoint(*to)
	if err != nil {
		return err
	}
	srcEP, err := wire.ParseEndpoint(*src)
	if err != nil {
		return err
	}
	// One trace id spans the whole transfer: every attempt, stripe and
	// range, and every depot hop the header reaches.
	if tid, err := wire.NewTraceID(); err == nil {
		xferTrace = tid
	}
	eng := &core.Engine{Dial: tcpDial, Src: srcEP, Await: depot.RemoteAwait(tcpDial, srcEP, dst, stallTimeout, log.Printf), Stall: stallTimeout, Trace: tr}
	var sampler *obs.ByteSampler
	if *sampleIvl > 0 {
		sampler = obs.NewByteSampler("lsl-xfer", *sampleIvl)
		eng.Dial = lsl.DialerFunc(func(addr string) (net.Conn, error) {
			conn, err := tcpDial.Dial(addr)
			if err != nil {
				return nil, err
			}
			return sampledConn{Conn: conn, w: sampler.Writer(conn), r: sampler.Reader(conn)}, nil
		})
	}
	start := time.Now()
	var id wire.SessionID
	if *fetchID != "" {
		id, err = runFetch(ctx, eng, dst)
	} else {
		id, err = runSend(ctx, eng, dst)
	}
	if sampler != nil {
		series := sampler.Stop()
		fmt.Print(trace.Table([]*trace.Series{series}, 12))
		for _, e := range obs.SeriesEvents(series, start, id.String(), 0, *src) {
			if !xferTrace.IsZero() {
				e.Trace = xferTrace.String()
			}
			obs.Emit(tr, e)
		}
	}
	return err
}

// tcpDial opens every connection lsl-xfer makes, each bounded to 10 s.
var tcpDial = lsl.DialerFunc(func(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
})

// sampledConn counts what passes through it into the -sample sampler.
type sampledConn struct {
	net.Conn
	w io.Writer
	r io.Reader
}

func (c sampledConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c sampledConn) Read(p []byte) (int, error)  { return c.r.Read(p) }

// xferTrace is the end-to-end trace id of this invocation's transfer,
// zero (untraced) when entropy failed.
var xferTrace wire.TraceID

// sessionOpts returns the wire options every session of this
// invocation carries besides the trace id: the fair-share weight above
// the default, and chunk checksums under -verify-integrity.
func sessionOpts() []wire.Option {
	var opts []wire.Option
	if *weight > int(wire.DefaultSessionWeight) {
		opts = append(opts, wire.SessionWeightOption(uint16(*weight)))
	}
	if *verifyInt {
		opts = append(opts, wire.ChunkChecksumOption())
	}
	return opts
}

// parseID decodes a 32-hex-digit session id.
func parseID(s string) (wire.SessionID, error) {
	var id wire.SessionID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(id) {
		return id, fmt.Errorf("want a 32-hex-digit session id, got %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// runFetch reads the stored session -fetch names back from the depot
// dst and verifies its pattern.
func runFetch(ctx context.Context, eng *core.Engine, dst wire.Endpoint) (wire.SessionID, error) {
	id, err := parseID(*fetchID)
	if err != nil {
		return id, fmt.Errorf("-fetch: %w", err)
	}
	start := time.Now()
	n, err := eng.Fetch(ctx, dst, id, xferTrace)
	if err != nil {
		return id, err
	}
	fmt.Printf("fetched session %s: %s [OK]\n", id, rate(n, time.Since(start)))
	return id, nil
}

// rate renders n bytes moved in d.
func rate(n int64, d time.Duration) string {
	return fmt.Sprintf("%d bytes in %v = %.2f Mbit/s", n, d.Round(time.Millisecond), float64(n)*8/1e6/d.Seconds())
}

// usage rejects the command line with msg.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "lsl-xfer: "+msg)
	flag.Usage()
	os.Exit(2)
}

// runSend makes the send the flags describe and returns its session id.
func runSend(ctx context.Context, eng *core.Engine, dst wire.Endpoint) (wire.SessionID, error) {
	id, err := wire.NewSessionID()
	if *idSpec != "" {
		id, err = parseID(*idSpec)
	}
	if err != nil {
		return id, err
	}
	if modes := exclusiveModes(*cached, *tableMode, *store, *generate, *stripesN, *multipathN); len(modes) > 1 {
		usage(strings.Join(modes, " and ") + " are mutually exclusive — pick one send mode")
	}
	if f := overWireLimit(*stripesN, *multipathN); f != "" {
		usage(fmt.Sprintf("%s above %d does not fit the 16-bit header field", f, math.MaxUint16))
	}
	size, err := stats.ParseSize(*sizeSpec)
	if err != nil {
		return id, err
	}
	// A -multipath -via names several ';'-separated routes.
	routes, err := parseMultipathRoutes(*via)
	if err != nil {
		return id, err
	}
	route := routes[0]
	if *multipathN == 0 && len(routes) > 1 {
		return id, fmt.Errorf("-via %q names %d routes: only -multipath takes ';'", *via, len(routes))
	}
	o := core.Object{ID: id, Trace: xferTrace, Dst: dst, Size: size, Opts: sessionOpts()}
	if *verifyInt && !*cached && !*store && *stripesN <= 1 {
		// Only an unstriped send carries the whole-object digest (stripes
		// interleave at the sink, -cached adds its own, a store has no
		// sink), and no depot caches a fresh id that no repeat asks for.
		o.Opts = append(o.Opts, wire.ContentDigestOption(depot.PatternDigest(id, size)), wire.CacheAtOption(wire.Endpoint{}))
	}
	if *failover {
		eng.Failover = func(core.Route, wire.SessionID, wire.TraceID) core.Route {
			log.Printf("failover: abandoning depot route, dialing %s directly", dst)
			return core.Route{}
		}
	}
	// A send over a slow real path may take long: an attempt is bounded
	// by its progress (Stall), and the hour only caps the wait for a
	// report whose drain the sink shows moving.
	pol := core.RecoveryPolicy{Retry: retry.Policy{MaxAttempts: *retries + 1, BaseDelay: *backoff},
		Failover: *failover, FailoverAfter: 1, AttemptTimeout: time.Hour}
	start := time.Now()
	var how string
	switch {
	case *generate && len(route) == 0:
		return id, fmt.Errorf("-generate needs at least one -via depot to do the generating")
	case *store, *generate:
		// The depot dst answers for a store; a generate's payload comes
		// from its first depot.
		o.Type, how = wire.TypeStore, fmt.Sprintf("stored at %s; fetch with: lsl-xfer -to %s -fetch %s", dst, dst, id)
		if *generate {
			o.Type, how = wire.TypeGenerate, "generated by "+route[0].String()
		}
		err = eng.Once(ctx, o, core.Route{Via: route}, pol.AttemptTimeout)
	case *multipathN > 0:
		if len(routes) != *multipathN {
			return id, fmt.Errorf("-multipath %d wants %d ';'-separated -via routes (got %d)", *multipathN, *multipathN, len(routes))
		}
		r := make([]core.Route, len(routes))
		for w := range routes {
			r[w] = core.Route{Via: routes[w]}
		}
		var spread core.Spread
		spread, err = eng.Multipath(ctx, o, r, pol)
		how = fmt.Sprintf("over %d disjoint routes, %d ranges stolen", len(routes), spread.Stolen)
	case *cached:
		if len(route) == 0 {
			return id, fmt.Errorf("-cached needs a -via depot to cache at")
		}
		var off core.Offload
		off, err = eng.Cached(ctx, o, depot.PatternDigest(id, size), core.Route{Via: route}, len(route)-1, pol)
		how = "all from origin"
		if off.Cached > 0 {
			how = fmt.Sprintf("%d origin + %d served by %s", off.Origin, off.Cached, route[off.Holder])
		}
	case *tableMode:
		if len(route) != 1 {
			return id, fmt.Errorf("-table-driven needs exactly one -via entry depot (got %d)", len(route))
		}
		_, err = eng.Send(ctx, o, core.Route{Entry: route[0]}, pol)
		how = "table-driven"
	case *stripesN > 1:
		n := int(min(int64(*stripesN), size))
		_, err = eng.Striped(ctx, o, core.Route{Via: route}, n, pol)
		how = fmt.Sprintf("over %d stripes", n)
	default:
		var end core.Route
		end, err = eng.Send(ctx, o, core.Route{Via: route}, pol)
		how = fmt.Sprintf("via %d depots", len(end.Via))
	}
	if err != nil {
		return id, err
	}
	fmt.Printf("session %s: %s (%s)\n", id, rate(size, time.Since(start)), how)
	if *cached && *idSpec == "" {
		fmt.Printf("repeat this object with: -cached -id %s\n", id)
	}
	return id, nil
}

// stallTimeout fails a session that makes no progress for this long: a
// write that does not go through or, while the sender awaits the report,
// a sink whose verified end does not move.
const stallTimeout = time.Minute

// exclusiveModes lists the mutually exclusive send-mode flags an
// invocation enabled. Each mode owns the whole session layout — how
// ranges, routes, and session ids map onto connections — so at most
// one may be active per send; the caller rejects longer lists with a
// usage error.
func exclusiveModes(cached, tableDriven, store, generate bool, stripes, multipath int) []string {
	var modes []string
	for _, m := range []struct {
		on   bool
		name string
	}{{cached, "-cached"}, {tableDriven, "-table-driven"}, {store, "-store"}, {generate, "-generate"}, {stripes > 1, "-stripes"}, {multipath > 0, "-multipath"}} {
		if m.on {
			modes = append(modes, m.name)
		}
	}
	return modes
}

// overWireLimit names the -stripes or -multipath flag whose count the
// 16-bit header field cannot carry, or returns "" when both fit.
func overWireLimit(stripes, multipath int) string {
	switch {
	case stripes > math.MaxUint16:
		return "-stripes"
	case multipath > math.MaxUint16:
		return "-multipath"
	}
	return ""
}

// parseMultipathRoutes splits a -via into its ';'-separated depot
// routes, each group a comma-separated chain. An empty group is the
// direct path: the route dials -to with no depots.
func parseMultipathRoutes(via string) ([][]wire.Endpoint, error) {
	groups := strings.Split(via, ";")
	routes := make([][]wire.Endpoint, 0, len(groups))
	for _, g := range groups {
		var route []wire.Endpoint
		for _, hop := range strings.Split(g, ",") {
			hop = strings.TrimSpace(hop)
			if hop == "" {
				continue
			}
			ep, err := wire.ParseEndpoint(hop)
			if err != nil {
				return nil, err
			}
			route = append(route, ep)
		}
		routes = append(routes, route)
	}
	return routes, nil
}

func runSink(ctx context.Context, tr obs.Sink) error {
	if *selfAddr == "" {
		usage("-sink requires -self")
	}
	self, err := wire.ParseEndpoint(*selfAddr)
	if err != nil {
		return err
	}
	srv, err := sinkServer(self, tr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		srv.Close()
		ln.Close()
	})
	defer stop()
	log.Printf("sink %s listening on %s", self, *listen)
	return srv.Serve(ln)
}

// sinkServer is the -sink depot: sessions addressed to self read
// through one depot.Sink, which logs each session's status line and
// answers senders' status queries.
func sinkServer(self wire.Endpoint, tr obs.Sink) (*depot.Server, error) {
	sink := depot.NewSink(func(r depot.Report) {
		status := "OK"
		if r.Err != nil {
			status = r.Err.Error()
		} else if r.Checked {
			status = "OK, sha256 verified"
		}
		log.Printf("session %s from %s: %s [%s]", r.ID, r.Src, rate(r.Bytes, r.Elapsed), status)
	}, nil)
	return depot.New(depot.Config{Self: self, Dial: tcpDial, Trace: tr, Local: sink.Handle, Logf: log.Printf})
}
