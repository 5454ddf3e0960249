// Command lsl-xfer moves data over the Logistical Session Layer on
// real TCP sockets.
//
// Sender mode pushes pattern data to a destination, optionally through
// a loose source route of depots:
//
//	lsl-xfer -to 198.51.100.9:7411 -size 64M \
//	         [-via 198.51.100.7:7411,198.51.100.8:7411] [-src ip:port]
//
// With -generate, the first hop (a depot) synthesizes the data instead
// of the local machine sending it — the paper's test-traffic mechanism:
//
//	lsl-xfer -to sink:7411 -via depot:7411 -size 16M -generate
//
// Recovery: -retries N re-runs a failed plain send up to N times with
// exponential backoff (-retry-backoff sets the base delay); -failover
// additionally abandons the -via depot route on the first retry and
// dials -to directly. Each attempt restarts from byte zero under a
// fresh session id — real TCP gives the sender no ack channel to
// resume from, unlike the in-process library transfers.
//
// Striping: -stripes N opens N parallel sublink chains sharing one
// session id, each carrying a contiguous byte range of the object
// announced through the resume-offset option. A window-limited path
// delivers roughly N times the single-connection throughput; -retries
// applies per stripe, restarting only the failed stripe's range:
//
//	lsl-xfer -to sink:7411 -via depot:7411 -size 64M -stripes 4
//
// Multipath: -multipath K fans the object across K depot routes given
// as ';'-separated -via groups (each group its own comma-separated
// depot chain; an empty group dials -to directly). Every route session
// shares one session id plus a path-set identifier carried in the
// header, and each route pulls contiguous chunk ranges off a shared
// work list as its previous write drains — TCP back-pressure
// self-clocks the routes, so a faster route simply carries more of the
// object. -retries applies per range on its owning route:
//
//	lsl-xfer -to sink:7411 -via "a:7411,b:7411;c:7411" -multipath 2
//
// The mode flags -cached, -stripes, -multipath, -table-driven, -store,
// and -generate are mutually exclusive: each owns the whole session
// layout, so combinations are rejected with a usage error.
//
// Table-driven mode hands routing to the control plane: the sender
// dials a single entry depot (-via) with no source route, and every
// depot on the way forwards by the route table its lsl-ctl controller
// pushed. A depot with no table entry for the destination refuses the
// session rather than guessing:
//
//	lsl-xfer -to sink:7411 -via mydepot:7411 -size 16M -table-driven
//
// Fair sharing: -weight N stamps the session with a fair-share weight
// option; depots running the weighted scheduler (lsl-depot -fair-share)
// grant the session N× a weight-1 competitor's bandwidth at their
// downstream trunk. Depots without the scheduler forward the option
// untouched:
//
//	lsl-xfer -to sink:7411 -via depot:7411 -size 64M -weight 4
//
// Integrity: -verify-integrity arms end-to-end data integrity on any
// send. The payload travels as CRC-32C-framed chunks that every depot
// on the path verifies and re-stamps — a corrupting hop is caught at
// the first depot after the damage, which refuses the session and
// counts the error — and a plain (unstriped) send additionally carries
// a whole-object SHA-256 digest the sink checks after the last byte.
// The sink side needs no flag: it honors whatever integrity options the
// session header carries:
//
//	lsl-xfer -to sink:7411 -via depot:7411 -size 64M -verify-integrity
//
// Cached sends: -cached probes the -via depots' content-addressed
// caches for the object before sending. The send carries a content
// digest and CRC framing (so depots on the path populate their caches
// as they forward), and when a probed depot already holds a suffix of
// the object, the sender ships only the cold prefix itself and directs
// that depot to serve the cached remainder toward the sink — the
// origin-offload path. Repeats of the same object must reuse the first
// send's session id (the payload pattern, and hence the digest, is
// keyed by it), so the first -cached run prints the -id to repeat with:
//
//	lsl-xfer -to sink:7411 -via depot:7411 -size 64M -cached
//	lsl-xfer -to sink:7411 -via depot:7411 -size 64M -cached -id <hex>
//
// A holder that refuses the serve directive (evicted, damaged spans)
// is ignored and the sender falls back to shipping the remainder from
// the origin. Delivery accounting is best-effort over real TCP — the
// sink's log line is the ground truth for what landed.
//
// Sink mode accepts sessions and reads each through depot.Sink: it
// verifies the payload pattern and the header's integrity options, and
// stitches a resumed, cache-served or multipath range into the one
// digest of its transfer, keyed by session and trace id. It prints
// per-session throughput and the verdict:
//
//	lsl-xfer -sink -listen 0.0.0.0:7411 -self 198.51.100.9:7411
//
// Telemetry: -trace-out FILE appends the session's lifecycle events as
// JSON lines (the sender emits hop 0; a sink emits its own hop), and
// -sample INTERVAL samples the cumulative bytes this side has pushed
// into (or pulled from) its socket, printing a sequence table after the
// transfer — the Figure 5-style curve whose knee marks downstream
// back-pressure. With both flags the samples are appended to the trace
// file as "sample" events.
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
	"strconv"
	"strings"
	"sync"
	"time"

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
	retries    = flag.Int("retries", 0, "retry a failed send this many times with backoff (plain send mode only)")
	backoff    = flag.Duration("retry-backoff", 500*time.Millisecond, "base delay before the first retry (doubles each retry)")
	failover   = flag.Bool("failover", false, "on retry, abandon the -via depot route and dial -to directly")
	stripesN   = flag.Int("stripes", 1, "send over this many parallel sublinks sharing one session id (plain send mode only)")
	tableMode  = flag.Bool("table-driven", false, "send with no source route through one -via entry depot; depots route by controller-pushed tables")
	weight     = flag.Int("weight", 1, "fair-share weight (1..65535) carried in the session header; fair-share depots grant bandwidth in proportion")
	verifyInt  = flag.Bool("verify-integrity", false, "send CRC-32C-framed chunks every depot hop verifies; plain sends also carry a whole-object SHA-256 digest the sink checks")
	multipathN = flag.Int("multipath", 0, "fan the send across this many ';'-separated -via depot routes sharing one session id (0 = off; plain send mode only)")
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
	var err error
	switch {
	case *sink:
		err = runSink()
	case *fetchID != "":
		err = runFetch()
	default:
		err = runSend()
	}
	if err != nil {
		log.Fatalf("lsl-xfer: %v", err)
	}
}

// openTrace opens the configured trace sinks — the -trace-out JSONL
// file, the -trace-push collector shipper, or both — or returns a nil
// Sink (no-op) when neither flag is set. close is always safe to call.
func openTrace() (obs.Sink, func(), error) {
	var sinks obs.MultiSink
	var closers []func()
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, func() {}, fmt.Errorf("trace-out: %w", err)
		}
		sinks = append(sinks, obs.NewJSONSink(f))
		closers = append(closers, func() { f.Close() })
	}
	if *tracePush != "" {
		push := obs.NewPushSink(obs.PushConfig{URL: *tracePush})
		sinks = append(sinks, push)
		closers = append(closers, push.Close)
	}
	closeAll := func() {
		for _, c := range closers {
			c()
		}
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

// xferTrace is the end-to-end trace id of this invocation's transfer,
// minted once per send so every attempt, stripe, and depot hop shares
// it. Zero (untraced) when minting was never requested or entropy
// failed — tracing is best-effort by design.
var xferTrace wire.TraceID

// mintTrace mints the invocation-wide trace id.
func mintTrace() {
	if tid, err := wire.NewTraceID(); err == nil {
		xferTrace = tid
	}
}

// sessionOpts returns the wire options every attempt of this
// invocation carries: the minted trace id (when tracing succeeded), the
// fair-share weight (when above the default, so unweighted sends put
// nothing extra on the wire), and the chunk-checksum option when
// -verify-integrity armed per-hop verification.
func sessionOpts() []wire.Option {
	var opts []wire.Option
	if !xferTrace.IsZero() {
		opts = append(opts, wire.TraceIDOption(xferTrace))
	}
	if *weight > int(wire.DefaultSessionWeight) {
		opts = append(opts, wire.SessionWeightOption(uint16(*weight)))
	}
	if *verifyInt {
		opts = append(opts, wire.ChunkChecksumOption())
	}
	return opts
}

// sendWriter wraps a session for sending: the byte sampler when
// sampling is on, then the chunk framer when the session was opened
// checksummed — so the sampler sees the framed bytes that actually hit
// the socket.
func sendWriter(sess *lsl.Session, sampler *obs.ByteSampler) io.Writer {
	var w io.Writer = sess
	if sampler != nil {
		w = sampler.Writer(sess)
	}
	if sess.Header.Checksummed() {
		w = wire.NewFrameWriter(w)
	}
	return w
}

// newSampler starts the -sample byte sampler, or returns nil when off.
func newSampler(name string) *obs.ByteSampler {
	if *sampleIvl <= 0 {
		return nil
	}
	return obs.NewByteSampler(name, *sampleIvl)
}

// finishSampler prints the sampled sequence table and, when a trace
// sink is present, appends the samples as events.
func finishSampler(s *obs.ByteSampler, tr obs.Sink, base time.Time, session string, node string) {
	if s == nil {
		return
	}
	series := s.Stop()
	fmt.Print(trace.Table([]*trace.Series{series}, 12))
	if tr != nil {
		for _, e := range obs.SeriesEvents(series, base, session, 0, node) {
			if !xferTrace.IsZero() {
				e.Trace = xferTrace.String()
			}
			tr.Emit(e)
		}
	}
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

// runFetch retrieves an asynchronously stored session and verifies its
// pattern.
func runFetch() error {
	if *to == "" {
		return fmt.Errorf("-fetch requires -to <depot>")
	}
	raw, err := hex.DecodeString(*fetchID)
	if err != nil || len(raw) != 16 {
		return fmt.Errorf("-fetch wants a 32-hex-digit session id")
	}
	var id wire.SessionID
	copy(id[:], raw)
	depotEP, err := wire.ParseEndpoint(*to)
	if err != nil {
		return err
	}
	selfEP, err := wire.ParseEndpoint(*src)
	if err != nil {
		return err
	}
	tr, closeTrace, err := openTrace()
	if err != nil {
		return err
	}
	defer closeTrace()
	start := time.Now()
	sess, err := lsl.Fetch(tcpDial, selfEP, depotEP, id)
	if err != nil {
		return err
	}
	defer sess.Close()
	emit0(tr, id, obs.KindConnect, obs.Event{Peer: depotEP.String()})
	sampler := newSampler("fetch " + id.String())
	var in io.Reader = sess
	if sampler != nil {
		in = sampler.Reader(sess)
	}
	total, err := depot.ReadVerified(in, id, 0, false, func(_ []byte, off int64) {
		if off == 0 {
			emit0(tr, id, obs.KindFirstByte, obs.Event{})
		}
	})
	if err != nil {
		return err
	}
	emit0(tr, id, obs.KindLastByte, obs.Event{Bytes: total})
	finishSampler(sampler, tr, start, id.String(), *src)
	elapsed := time.Since(start)
	fmt.Printf("fetched session %s: %d bytes in %v = %.2f Mbit/s [OK]\n",
		id, total, elapsed.Round(time.Millisecond),
		float64(total)*8/1e6/elapsed.Seconds())
	return nil
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

func runSend() error {
	if *to == "" {
		fmt.Fprintln(os.Stderr, "lsl-xfer: -to is required")
		flag.Usage()
		os.Exit(2)
	}
	size, err := parseSize(*sizeSpec)
	if err != nil {
		return err
	}
	dst, err := wire.ParseEndpoint(*to)
	if err != nil {
		return err
	}
	srcEP, err := wire.ParseEndpoint(*src)
	if err != nil {
		return err
	}
	if modes := exclusiveModes(*cached, *tableMode, *store, *generate, *stripesN, *multipathN); len(modes) > 1 {
		fmt.Fprintf(os.Stderr, "lsl-xfer: %s are mutually exclusive — pick one send mode\n", strings.Join(modes, " and "))
		flag.Usage()
		os.Exit(2)
	}
	if f := overWireLimit(*stripesN, *multipathN); f != "" {
		fmt.Fprintf(os.Stderr, "lsl-xfer: %s above %d does not fit the 16-bit header field\n", f, math.MaxUint16)
		flag.Usage()
		os.Exit(2)
	}
	// A -multipath -via names several ';'-separated routes, not one
	// depot chain; its parsing happens in the multipath branch below.
	var route []wire.Endpoint
	if *via != "" && *multipathN == 0 {
		for _, hop := range strings.Split(*via, ",") {
			ep, err := wire.ParseEndpoint(strings.TrimSpace(hop))
			if err != nil {
				return err
			}
			route = append(route, ep)
		}
	}
	tr, closeTrace, err := openTrace()
	if err != nil {
		return err
	}
	defer closeTrace()
	// One trace id spans the whole send: every retry attempt, every
	// stripe, and every depot hop the header reaches.
	mintTrace()
	firstHop := dst
	if len(route) > 0 {
		firstHop = route[0]
	}

	if *multipathN > 0 {
		routes, perr := parseMultipathRoutes(*via)
		if perr != nil {
			return perr
		}
		if len(routes) != *multipathN {
			return fmt.Errorf("-multipath %d wants %d ';'-separated -via routes (got %d)",
				*multipathN, *multipathN, len(routes))
		}
		return runMultipathSend(srcEP, dst, routes, size, tr)
	}

	if *cached {
		if len(route) == 0 {
			return fmt.Errorf("-cached needs at least one -via depot to probe")
		}
		return runCachedSend(srcEP, dst, route, size, tr)
	}

	if *tableMode {
		if len(route) != 1 {
			return fmt.Errorf("-table-driven needs exactly one -via entry depot (got %d)", len(route))
		}
		return runTableDrivenSend(srcEP, dst, route[0], size, tr)
	}

	if *stripesN > 1 {
		return runStripedSend(srcEP, dst, route, firstHop, size, tr)
	}

	start := time.Now()
	var sess *lsl.Session
	if *store {
		sess, err = lsl.Start(tcpDial, lsl.Spec{Type: wire.TypeStore, Src: srcEP, Dst: dst, Route: route, Options: sessionOpts()})
		if err != nil {
			return err
		}
		if err := sendSampled(sess, "store", size, tr, start, obs.Event{Peer: firstHop.String()}); err != nil {
			return err
		}
		fmt.Printf("stored session %s at %s: %d bytes in %v (fetch with: lsl-xfer -to %s -fetch %s)\n",
			sess.ID(), dst, size, time.Since(start).Round(time.Millisecond), dst, sess.ID())
		return nil
	} else if *generate {
		if len(route) == 0 {
			return fmt.Errorf("-generate needs at least one -via depot to do the generating")
		}
		sess, err = lsl.Start(tcpDial, lsl.Spec{Type: wire.TypeGenerate, Src: srcEP, Dst: dst, Route: route,
			Options: append([]wire.Option{wire.GenerateOption(uint64(size))}, sessionOpts()...)})
		if err != nil {
			return err
		}
		emit0(tr, sess.ID(), obs.KindConnect, obs.Event{Peer: firstHop.String()})
		// The depot closes the control connection when generation ends.
		io.Copy(io.Discard, sess) //nolint:errcheck // EOF is the signal
		sess.Close()
		emit0(tr, sess.ID(), obs.KindLastByte, obs.Event{Bytes: size})
	} else {
		// Each retry restarts from byte zero: over real TCP the sender
		// has no ack channel back from the sink, so it cannot know which
		// prefix landed (the in-process core library resumes at the
		// acked offset instead). A new attempt is a new session id.
		attemptRoute := route
		pol := retry.Policy{MaxAttempts: *retries + 1, BaseDelay: *backoff}
		err = pol.Do(context.Background(), func(attempt int) error {
			if attempt > 0 {
				if *failover && len(attemptRoute) > 0 {
					log.Printf("failover: abandoning depot route, dialing %s directly", dst)
					attemptRoute = nil
				}
				log.Printf("retry %d of %d", attempt, *retries)
			}
			hop := dst
			if len(attemptRoute) > 0 {
				hop = attemptRoute[0]
			}
			spec := lsl.Spec{Src: srcEP, Dst: dst, Route: attemptRoute, Options: sessionOpts()}
			if *verifyInt {
				// The whole-object digest is keyed by the session id
				// (the payload is the id-seeded pattern), so integrity
				// sends mint the id before opening. Each attempt is
				// still its own session — it restarts from byte zero,
				// so its digest covers the whole object.
				sid, merr := wire.NewSessionID()
				if merr != nil {
					return merr
				}
				spec.ID = sid
				spec.Options = append(spec.Options, wire.ContentDigestOption(depot.PatternDigest(sid, size)))
			}
			s2, oerr := lsl.Start(tcpDial, spec)
			if oerr != nil {
				return oerr
			}
			sess = s2
			return sendSampled(sess, "send", size, tr, start, obs.Event{Peer: hop.String(), Retries: attempt})
		})
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("session %s: %d bytes in %v = %.2f Mbit/s (send-side)\n",
		sess.ID(), size, elapsed.Round(time.Millisecond),
		float64(size)*8/1e6/elapsed.Seconds())
	return nil
}

// cachedSessionID returns the session id a -cached send runs under:
// the -id the user carried over from a previous send of the same
// object, or a freshly minted one.
func cachedSessionID() (wire.SessionID, error) {
	var id wire.SessionID
	if *idSpec == "" {
		return wire.NewSessionID()
	}
	raw, err := hex.DecodeString(*idSpec)
	if err != nil || len(raw) != len(id) {
		return id, fmt.Errorf("-id wants a 32-hex-digit session id")
	}
	copy(id[:], raw)
	return id, nil
}

// cachedSuffixStart returns the first byte of the longest contiguous
// cached suffix that runs to exactly size, or size when the advertised
// ranges hold no such suffix. Only a suffix is spliceable: the origin
// sends [0, start) and the holder serves [start, size) after it.
func cachedSuffixStart(ranges []wire.ByteRange, size int64) int64 {
	if n := len(ranges); n > 0 && ranges[n-1].End() == size {
		return ranges[n-1].Off
	}
	return size
}

// runCachedSend is the origin-offload path: probe the route's depots
// for the object's digest, send only the cold prefix from here, and
// direct the best holder (longest cached suffix; ties to the depot
// nearest the sink) to serve the remainder out of its cache. A refused
// directive falls back to an origin send of the remainder.
func runCachedSend(srcEP, dst wire.Endpoint, route []wire.Endpoint, size int64, tr obs.Sink) error {
	id, err := cachedSessionID()
	if err != nil {
		return err
	}
	digest := depot.PatternDigest(id, size)
	start := time.Now()

	holder, coldEnd := -1, size
	for i, hop := range route {
		ranges, perr := lsl.CacheProbe(tcpDial, srcEP, hop, digest, time.Now().Add(10*time.Second))
		if perr != nil {
			continue // no cache there, or unreachable: probe is best-effort
		}
		if c := cachedSuffixStart(ranges, size); c < size && c <= coldEnd {
			holder, coldEnd = i, c
		}
	}
	if holder >= 0 {
		log.Printf("cache: %s holds [%d,%d), sending only the first %d bytes from the origin",
			route[holder], coldEnd, size, coldEnd)
	}

	// Every session of the splice carries the digest and CRC framing:
	// the framing is what lets depots populate (and verify) their caches
	// as the cold bytes pass through.
	opts := sessionOpts()
	if !*verifyInt {
		opts = append(opts, wire.ChunkChecksumOption())
	}
	opts = append(opts, wire.ContentDigestOption(digest))

	var originBytes, cachedBytes int64
	if coldEnd > 0 {
		sess, oerr := lsl.Start(tcpDial, lsl.Spec{ID: id, Src: srcEP, Dst: dst, Route: route, Options: opts})
		if oerr != nil {
			return oerr
		}
		emit0(tr, id, obs.KindConnect, obs.Event{Peer: route[0].String()})
		written, werr := sendPatternRange(sendWriter(sess, nil), id, 0, coldEnd)
		sess.Close()
		originBytes += written
		if werr != nil {
			return fmt.Errorf("cached send after %d bytes: %w", written, werr)
		}
	}
	if holder >= 0 && coldEnd < size {
		r := wire.ByteRange{Off: coldEnd, Len: size - coldEnd}
		sess, oerr := lsl.Start(tcpDial, lsl.Spec{Type: wire.TypeCacheServe, ID: id, Src: srcEP, Dst: dst, Route: route[holder:],
			Options: append([]wire.Option{wire.CacheServeOption(digest, r)}, opts...)})
		if oerr != nil {
			log.Printf("serve directive to %s failed (%v), falling back to origin", route[holder], oerr)
		} else {
			emit0(tr, id, obs.KindConnect, obs.Event{Peer: route[holder].String(),
				Detail: fmt.Sprintf("cache serve [%d,%d)", r.Off, r.End())})
			// The holder writes nothing back on success and closes when
			// the serve is done; a directive it cannot satisfy (or a span
			// that fails its CRC mid-read) comes back as a refusal header.
			hdr, rerr := wire.ReadHeader(sess)
			sess.Close()
			if rerr != nil {
				cachedBytes = r.Len
			} else if hdr.Type == wire.TypeRefuse {
				log.Printf("holder %s refused the serve directive, falling back to origin", route[holder])
			}
		}
	}
	if total := originBytes + cachedBytes; total < size {
		sess, oerr := lsl.Start(tcpDial, lsl.Spec{ID: id, Src: srcEP, Dst: dst, Route: route, Offset: originBytes, Options: opts})
		if oerr != nil {
			return oerr
		}
		emit0(tr, id, obs.KindConnect, obs.Event{Peer: route[0].String(), Retries: 1})
		written, werr := sendPatternRange(sendWriter(sess, nil), id, originBytes, size)
		sess.Close()
		originBytes += written
		if werr != nil {
			return fmt.Errorf("cached send fallback after %d bytes: %w", written, werr)
		}
	}
	emit0(tr, id, obs.KindLastByte, obs.Event{Bytes: originBytes + cachedBytes})

	elapsed := time.Since(start)
	served := "all from origin"
	if cachedBytes > 0 {
		served = fmt.Sprintf("%d origin + %d served by %s", originBytes, cachedBytes, route[holder])
	}
	fmt.Printf("session %s: %d bytes in %v = %.2f Mbit/s (send-side, %s)\n",
		id, size, elapsed.Round(time.Millisecond),
		float64(size)*8/1e6/elapsed.Seconds(), served)
	if *idSpec == "" {
		fmt.Printf("repeat this object with: -cached -id %s\n", id)
	}
	return nil
}

// runTableDrivenSend pushes the object through one entry depot with no
// source route: the header names only src and dst, and each depot picks
// the next hop from its controller-pushed route table. A table miss
// anywhere on the path surfaces here as a refusal.
func runTableDrivenSend(srcEP, dst, entry wire.Endpoint, size int64, tr obs.Sink) error {
	start := time.Now()
	sess, err := lsl.Start(tcpDial, lsl.Spec{Src: srcEP, Dst: dst, Entry: entry, Options: sessionOpts()})
	if err != nil {
		return err
	}
	if err := sendSampled(sess, "table-driven send", size, tr, start, obs.Event{Peer: entry.String()}); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("session %s: %d bytes in %v = %.2f Mbit/s (send-side, table-driven)\n",
		sess.ID(), size, elapsed.Round(time.Millisecond),
		float64(size)*8/1e6/elapsed.Seconds())
	return nil
}

// runStripedSend pushes the object over *stripesN parallel sublink
// chains sharing one session id. Each stripe carries a contiguous byte
// range announced through the resume-offset option, so an ordinary
// -sink reassembles by absolute offset with no striping-specific code.
// -retries applies independently per stripe: a failed stripe restarts
// from its own range start while its siblings stream on.
func runStripedSend(srcEP, dst wire.Endpoint, route []wire.Endpoint, firstHop wire.Endpoint, size int64, tr obs.Sink) error {
	n := *stripesN
	if int64(n) > size {
		n = int(size)
	}
	id, err := wire.NewSessionID()
	if err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	base, rem := size/int64(n), size%int64(n)
	var from int64
	for k := 0; k < n; k++ {
		length := base
		if int64(k) < rem {
			length++
		}
		wg.Add(1)
		go func(k int, from, end int64) {
			defer wg.Done()
			pol := retry.Policy{MaxAttempts: *retries + 1, BaseDelay: *backoff}
			errs[k] = pol.Do(context.Background(), func(attempt int) error {
				if attempt > 0 {
					log.Printf("stripe %d: retry %d of %d", k, attempt, *retries)
				}
				sess, oerr := lsl.Start(tcpDial, lsl.Spec{ID: id, Src: srcEP, Dst: dst, Route: route, Offset: from,
					Options: append(sessionOpts(), wire.StripeCountOption(uint16(n)), wire.StripeIndexOption(uint16(k)))})
				if oerr != nil {
					return oerr
				}
				emit0(tr, id, obs.KindConnect, obs.Event{Peer: firstHop.String(), Stripe: obs.StripeOf(k), Retries: attempt})
				written, werr := sendPatternRange(sendWriter(sess, nil), id, from, end)
				sess.Close()
				if werr != nil {
					return fmt.Errorf("stripe %d after %d bytes: %w", k, written, werr)
				}
				emit0(tr, id, obs.KindLastByte, obs.Event{Bytes: written, Stripe: obs.StripeOf(k)})
				return nil
			})
		}(k, from, from+length)
		from += length
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			return werr
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("session %s: %d bytes over %d stripes in %v = %.2f Mbit/s (send-side)\n",
		id, size, n, elapsed.Round(time.Millisecond),
		float64(size)*8/1e6/elapsed.Seconds())
	return nil
}

// exclusiveModes lists the mutually exclusive send-mode flags an
// invocation enabled. Each mode owns the whole session layout — how
// ranges, routes, and session ids map onto connections — so at most
// one may be active per send; the caller rejects longer lists with a
// usage error.
func exclusiveModes(cached, tableDriven, store, generate bool, stripes, multipath int) []string {
	var modes []string
	if cached {
		modes = append(modes, "-cached")
	}
	if tableDriven {
		modes = append(modes, "-table-driven")
	}
	if store {
		modes = append(modes, "-store")
	}
	if generate {
		modes = append(modes, "-generate")
	}
	if stripes > 1 {
		modes = append(modes, "-stripes")
	}
	if multipath > 0 {
		modes = append(modes, "-multipath")
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

// parseMultipathRoutes splits a -multipath send's -via into its
// ';'-separated depot routes, each group a comma-separated chain. An
// empty group is the direct path: the route dials -to with no depots.
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

// multipathRange is one contiguous chunk of a -multipath send's shared
// work list.
type multipathRange struct{ from, end int64 }

// multipathSendRanges splits size bytes into the chunk ranges the
// route workers pull: several per route so the load can rebalance, but
// never below 64 KiB per range (tinier ranges spend more time in
// session setup than in transfer) and never fewer ranges than routes
// unless the object itself is smaller.
func multipathSendRanges(size int64, k int) []multipathRange {
	const perRoute, minRange = 4, int64(64 << 10)
	n := k * perRoute
	if int64(n)*minRange > size {
		n = int(size / minRange)
	}
	if n < k {
		n = k
	}
	if int64(n) > size {
		n = int(size)
	}
	ranges := make([]multipathRange, 0, n)
	base, rem := size/int64(n), size%int64(n)
	var from int64
	for i := 0; i < n; i++ {
		length := base
		if int64(i) < rem {
			length++
		}
		ranges = append(ranges, multipathRange{from: from, end: from + length})
		from += length
	}
	return ranges
}

// runMultipathSend fans the object across the parsed disjoint depot
// routes. Every route session shares one session id and a path-set
// identifier; each route worker pulls the next chunk range off the
// shared list as soon as its previous write drains, so TCP
// back-pressure self-clocks the routes — a faster route carries more
// ranges. -retries applies per range on its owning route; a range that
// exhausts its attempts fails the whole send.
func runMultipathSend(srcEP, dst wire.Endpoint, routes [][]wire.Endpoint, size int64, tr obs.Sink) error {
	k := len(routes)
	id, err := wire.NewSessionID()
	if err != nil {
		return err
	}
	set, err := wire.NewSessionID()
	if err != nil {
		return err
	}
	ranges := multipathSendRanges(size, k)
	start := time.Now()
	var mu sync.Mutex
	next := 0
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(ranges) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	carried := make([]int64, k)
	for w := range routes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			firstHop := dst
			if len(routes[w]) > 0 {
				firstHop = routes[w][0]
			}
			for {
				i, ok := claim()
				if !ok {
					return
				}
				r := ranges[i]
				pol := retry.Policy{MaxAttempts: *retries + 1, BaseDelay: *backoff}
				errs[w] = pol.Do(context.Background(), func(attempt int) error {
					if attempt > 0 {
						log.Printf("path %d: range %d retry %d of %d", w, i, attempt, *retries)
					}
					sess, oerr := lsl.Start(tcpDial, lsl.Spec{ID: id, Src: srcEP, Dst: dst, Route: routes[w], Offset: r.from,
						Options: append(sessionOpts(), wire.PathSetIDOption(set), wire.PathIndexOption(uint16(w), uint16(k)))})
					if oerr != nil {
						return oerr
					}
					emit0(tr, id, obs.KindConnect, obs.Event{Peer: firstHop.String(), Path: obs.PathOf(w), Retries: attempt})
					written, werr := sendPatternRange(sendWriter(sess, nil), id, r.from, r.end)
					sess.Close()
					if werr != nil {
						return fmt.Errorf("path %d range %d after %d bytes: %w", w, i, written, werr)
					}
					emit0(tr, id, obs.KindLastByte, obs.Event{Bytes: written, Path: obs.PathOf(w)})
					carried[w] += written
					return nil
				})
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			return werr
		}
	}
	elapsed := time.Since(start)
	shares := make([]string, k)
	for w := range carried {
		shares[w] = fmt.Sprintf("path %d: %d", w, carried[w])
	}
	fmt.Printf("session %s: %d bytes over %d disjoint routes in %v = %.2f Mbit/s (send-side; %s)\n",
		id, size, k, elapsed.Round(time.Millisecond),
		float64(size)*8/1e6/elapsed.Seconds(), strings.Join(shares, ", "))
	return nil
}

// sendSampled streams the whole object into sess under the -sample
// sampler, closes it, and traces its connect (the event given), first
// and last byte; what names the send in the sampler and in errors.
func sendSampled(sess *lsl.Session, what string, size int64, tr obs.Sink, start time.Time, connect obs.Event) error {
	emit0(tr, sess.ID(), obs.KindConnect, connect)
	sampler := newSampler(what + " " + sess.ID().String())
	emit0(tr, sess.ID(), obs.KindFirstByte, obs.Event{})
	written, err := sendPatternRange(sendWriter(sess, sampler), sess.ID(), 0, size)
	sess.Close()
	if err != nil {
		return fmt.Errorf("%s after %d bytes: %w", what, written, err)
	}
	emit0(tr, sess.ID(), obs.KindLastByte, obs.Event{Bytes: written})
	finishSampler(sampler, tr, start, sess.ID().String(), *src)
	return nil
}

// sendPatternRange streams the deterministic pattern for absolute
// object offsets [from, end) — one stripe's share — in 64 KiB writes.
func sendPatternRange(w io.Writer, id wire.SessionID, from, end int64) (int64, error) {
	return depot.WritePattern(w, make([]byte, 64<<10), id, from, end)
}

func runSink() error {
	if *selfAddr == "" {
		fmt.Fprintln(os.Stderr, "lsl-xfer: -sink requires -self")
		flag.Usage()
		os.Exit(2)
	}
	self, err := wire.ParseEndpoint(*selfAddr)
	if err != nil {
		return err
	}
	tr, closeTrace, err := openTrace()
	if err != nil {
		return err
	}
	defer closeTrace()
	srv, err := sinkServer(self, tr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("sink %s listening on %s", self, *listen)
	return srv.Serve(ln)
}

// sinkServer is the -sink depot: sessions addressed to self read
// through one depot.Sink, which logs each session's status line.
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
