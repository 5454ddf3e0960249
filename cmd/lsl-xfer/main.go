// Command lsl-xfer moves data over the Logistical Session Layer on
// real TCP sockets. docs/CLI.md documents every flag.
//
// Sender mode pushes pattern data to -to, through a loose source route
// of -via depots (none: direct):
//
//	lsl-xfer -to 198.51.100.9:7411 -via 198.51.100.7:7411,198.51.100.8:7411 -size 64M
//
// Every send mode runs on core.Engine, the sender the in-process
// library drives over its emulated network. After each session it asks
// the sink at -to, in a status session of its own, what the sink
// verified: a retry (-retries, -retry-backoff) resumes at the acked
// offset under the same session id, and a sink-side digest mismatch
// fails the send with wire.ErrDigest and a non-zero exit. A send is
// bounded by its progress, not its length. A sink that refuses the
// query (a plain depot) or closes it unanswered leaves completion to
// the send side, logged once. -failover drops the -via route after an
// attempt without progress and dials -to directly.
//
// The send modes, mutually exclusive: -stripes N splits the object
// over N parallel chains sharing one session id; -multipath K fans it
// over K ';'-separated -via routes that pull ranges off one work queue
// and steal an unfinished one once it drains; -table-driven dials one
// -via entry depot with no source route, to be forwarded by
// controller-pushed tables; -cached probes the -via depots' caches and
// has the holder of a cached suffix serve it, sending only the cold
// prefix (the first run prints the -id that names the object again);
// -store stages the object at -to for a later -fetch; -generate has the
// first depot synthesize it.
//
// -verify-integrity frames the payload in CRC-32C chunks every depot
// verifies, and an unstriped send also carries a whole-object SHA-256
// digest the sink checks. -weight N asks fair-share depots for N× a
// weight-1 session's bandwidth.
//
// Sink mode reads every session through depot.Sink, which verifies the
// pattern and the header's integrity options, stitches resumed,
// cache-served and multipath ranges into one digest per transfer,
// prints each session's verdict, and answers senders' status queries:
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
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
	cached     = flag.Bool("cached", false, "probe the -via depots' content caches and have a holder serve the cached suffix toward -to, sending only the cold prefix from here (implies integrity framing)")
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
	tr, closeTrace, err := openTrace()
	if err != nil {
		return err
	}
	defer closeTrace()
	if *sink {
		return runSink(ctx, tr)
	}
	// One trace id spans the whole transfer: every attempt, stripe and
	// range, and every depot hop the header reaches.
	if tid, err := wire.NewTraceID(); err == nil {
		xferTrace = tid
	}
	var sampler *obs.ByteSampler
	dial := lsl.Dialer(tcpDial)
	if *sampleIvl > 0 {
		sampler = obs.NewByteSampler("lsl-xfer", *sampleIvl)
		dial = lsl.DialerFunc(func(addr string) (net.Conn, error) {
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
		id, err = runFetch(dial, tr)
	} else {
		id, err = runSend(ctx, dial, tr)
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

// openTrace opens the configured trace sinks — the -trace-out JSONL
// file, the -trace-push collector shipper, or both — or returns a nil
// Sink (no-op) when neither flag is set. close is always safe to call.
func openTrace() (obs.Sink, func(), error) {
	var sinks obs.MultiSink
	closeAll := func() {}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, closeAll, fmt.Errorf("trace-out: %w", err)
		}
		sinks, closeAll = append(sinks, obs.NewJSONSink(f)), func() { f.Close() }
	}
	if *tracePush != "" {
		push, closeFile := obs.NewPushSink(obs.PushConfig{URL: *tracePush}), closeAll
		sinks, closeAll = append(sinks, push), func() { closeFile(); push.Close() }
	}
	if len(sinks) == 0 {
		return nil, closeAll, nil
	}
	return sinks, closeAll, nil
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

// xferTrace is the end-to-end trace id of this invocation's transfer.
// Zero (untraced) when entropy failed — tracing is best-effort by
// design.
var xferTrace wire.TraceID

// sessionOpts returns the wire options every session of this
// invocation carries besides the trace id: the fair-share weight (when
// above the default, so unweighted sends put nothing extra on the
// wire), and the chunk-checksum option when -verify-integrity armed
// per-hop verification.
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

// traceOpts is the option carrying trace id tid, none when untraced.
func traceOpts(tid wire.TraceID) []wire.Option {
	if tid.IsZero() {
		return nil
	}
	return []wire.Option{wire.TraceIDOption(tid)}
}

// emit0 reports a hop-0 (initiator-side) trace event, stamped with the
// invocation's trace id when one was minted.
func emit0(tr obs.Sink, session wire.SessionID, kind string, e obs.Event) {
	e.Kind = kind
	e.Session = session.String()
	e.Node = *src
	if !xferTrace.IsZero() {
		e.Trace = xferTrace.String()
	}
	obs.Emit(tr, e)
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

// runFetch retrieves an asynchronously stored session and verifies its
// pattern.
func runFetch(dial lsl.Dialer, tr obs.Sink) (wire.SessionID, error) {
	id, err := parseID(*fetchID)
	if err != nil {
		return id, fmt.Errorf("-fetch: %w", err)
	}
	depotEP, err := wire.ParseEndpoint(*to)
	if err != nil {
		return id, fmt.Errorf("-fetch needs -to <depot>: %w", err)
	}
	selfEP, err := wire.ParseEndpoint(*src)
	if err != nil {
		return id, err
	}
	start := time.Now()
	sess, err := lsl.Fetch(dial, selfEP, depotEP, id)
	if err != nil {
		return id, err
	}
	defer sess.Close()
	emit0(tr, id, obs.KindConnect, obs.Event{Peer: depotEP.String()})
	total, err := depot.ReadVerified(sess, id, 0, false, func(_ []byte, off int64) {
		if off == 0 {
			emit0(tr, id, obs.KindFirstByte, obs.Event{})
		}
	})
	if err != nil {
		return id, err
	}
	emit0(tr, id, obs.KindLastByte, obs.Event{Bytes: total})
	elapsed := time.Since(start)
	fmt.Printf("fetched session %s: %d bytes in %v = %.2f Mbit/s [OK]\n",
		id, total, elapsed.Round(time.Millisecond), float64(total)*8/1e6/elapsed.Seconds())
	return id, nil
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// usage rejects the command line with msg.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "lsl-xfer: "+msg)
	flag.Usage()
	os.Exit(2)
}

// runSend makes the send the flags describe and returns its session id.
func runSend(ctx context.Context, dial lsl.Dialer, tr obs.Sink) (wire.SessionID, error) {
	var id wire.SessionID
	if *to == "" {
		usage("-to is required")
	}
	if modes := exclusiveModes(*cached, *tableMode, *store, *generate, *stripesN, *multipathN); len(modes) > 1 {
		usage(strings.Join(modes, " and ") + " are mutually exclusive — pick one send mode")
	}
	if f := overWireLimit(*stripesN, *multipathN); f != "" {
		usage(fmt.Sprintf("%s above %d does not fit the 16-bit header field", f, math.MaxUint16))
	}
	size, err := parseSize(*sizeSpec)
	if err != nil {
		return id, err
	}
	dst, err := wire.ParseEndpoint(*to)
	if err != nil {
		return id, err
	}
	srcEP, err := wire.ParseEndpoint(*src)
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
	if *store || *generate {
		return runStaged(dial, tr, srcEP, dst, route, size)
	}

	id, err = wire.NewSessionID()
	if *idSpec != "" {
		id, err = parseID(*idSpec)
	}
	if err != nil {
		return id, err
	}
	o := core.Object{ID: id, Trace: xferTrace, Dst: dst, Size: size, Opts: sessionOpts()}
	if *verifyInt && !*cached && *stripesN <= 1 {
		// Stripes interleave at the sink, so only an unstriped send can
		// carry the whole-object digest; -cached adds its own.
		o.Opts = append(o.Opts, wire.ContentDigestOption(depot.PatternDigest(id, size)))
	}
	eng := &core.Engine{Dial: dial, Src: srcEP, Await: depot.RemoteAwait(tcpDial, srcEP, dst, stallTimeout, log.Printf), Stall: stallTimeout, Trace: tr}
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
			return id, fmt.Errorf("-cached needs at least one -via depot to probe")
		}
		var off core.Offload
		off, err = eng.Cached(ctx, o, depot.PatternDigest(id, size), core.Route{Via: route}, pol)
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
	elapsed := time.Since(start)
	fmt.Printf("session %s: %d bytes in %v = %.2f Mbit/s (%s)\n",
		id, size, elapsed.Round(time.Millisecond), float64(size)*8/1e6/elapsed.Seconds(), how)
	if *cached && *idSpec == "" {
		fmt.Printf("repeat this object with: -cached -id %s\n", id)
	}
	return id, nil
}

// stallTimeout fails a session that makes no progress for this long: a
// write that does not go through or, while the sender awaits the report,
// a sink whose verified end does not move.
const stallTimeout = time.Minute

// runStaged is -store, one session that stages the object at the depot
// dst for a later -fetch, or -generate, one request that has the first
// -via depot synthesize it toward dst.
func runStaged(dial lsl.Dialer, tr obs.Sink, srcEP, dst wire.Endpoint, route []wire.Endpoint, size int64) (wire.SessionID, error) {
	sp := lsl.Spec{Type: wire.TypeStore, Src: srcEP, Dst: dst, Route: route, Options: append(traceOpts(xferTrace), sessionOpts()...)}
	if *generate {
		if len(route) == 0 {
			return wire.SessionID{}, fmt.Errorf("-generate needs at least one -via depot to do the generating")
		}
		sp.Type, sp.Options = wire.TypeGenerate, append(sp.Options, wire.GenerateOption(uint64(size)))
	}
	start := time.Now()
	sess, err := lsl.Start(dial, sp)
	if err != nil {
		return wire.SessionID{}, err
	}
	defer sess.Close()
	first := dst
	if len(route) > 0 {
		first = route[0]
	}
	emit0(tr, sess.ID(), obs.KindConnect, obs.Event{Peer: first.String()})
	if *generate {
		// The depot closes the control connection when generation ends.
		io.Copy(io.Discard, sess) //nolint:errcheck // EOF is the signal
		emit0(tr, sess.ID(), obs.KindLastByte, obs.Event{Bytes: size})
		fmt.Printf("session %s: %d bytes generated by %s\n", sess.ID(), size, route[0])
		return sess.ID(), nil
	}
	emit0(tr, sess.ID(), obs.KindFirstByte, obs.Event{})
	if written, err := depot.WritePattern(sess.Payload(), make([]byte, 64<<10), sess.ID(), 0, size); err != nil {
		return sess.ID(), fmt.Errorf("store after %d bytes: %w", written, err)
	}
	sess.Close()
	emit0(tr, sess.ID(), obs.KindLastByte, obs.Event{Bytes: size})
	fmt.Printf("stored session %s at %s: %d bytes in %v (fetch with: lsl-xfer -to %s -fetch %s)\n",
		sess.ID(), dst, size, time.Since(start).Round(time.Millisecond), dst, sess.ID())
	return sess.ID(), nil
}

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
		log.Printf("session %s from %s: %d bytes in %v = %.2f Mbit/s [%s]",
			r.ID, r.Src, r.Bytes, r.Elapsed.Round(time.Millisecond),
			float64(r.Bytes)*8/1e6/r.Elapsed.Seconds(), status)
	}, nil)
	return depot.New(depot.Config{Self: self, Dial: tcpDial, Trace: tr, Local: sink.Handle, Logf: log.Printf})
}
