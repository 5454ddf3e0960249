package depot

import (
	"bytes"
	"io"
	"net"
	"testing"

	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// benchServer builds a minimal depot for exercising the pump without a
// network.
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New(Config{
		Self: wire.MustEndpoint("10.0.0.1:7411"),
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) { return nil, io.EOF }),
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkPump measures the forwarding pump moving 8 MB from an
// in-memory reader to a discarding writer: the per-chunk cost of the
// depot's hot path. allocs/op is the headline — the chunk-buffer pool
// exists to drive it down.
func BenchmarkPump(b *testing.B) {
	srv := benchServer(b)
	payload := make([]byte, 8<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := bytes.NewReader(payload)
		if _, err := srv.pump(io.Discard, checkedSource(src, false, nil), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairShare measures the same 8 MB pump with a fair-share
// flow attached to a work-conserving scheduler: the per-chunk cost of
// the credit gate on the write path. The delta against BenchmarkPump
// is the scheduling tax an unloaded depot pays for multi-tenancy.
func BenchmarkFairShare(b *testing.B) {
	srv := benchServer(b)
	sched := fairshare.New(fairshare.Config{})
	f := &flow{srv: srv, fs: sched.Join(1)}
	defer f.fs.Leave()
	payload := make([]byte, 8<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := bytes.NewReader(payload)
		if _, err := srv.pump(io.Discard, checkedSource(src, false, nil), f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPumpChecksum measures the same 8 MB pump moving whole
// CRC-32C frames, each verified in the chunk it leaves in — the
// integrity tax every depot hop of a checksummed session pays. The delta against BenchmarkPump is
// the guarded figure: hardware CRC should keep it a small fraction of
// the plain pump cost.
func BenchmarkPumpChecksum(b *testing.B) {
	srv := benchServer(b)
	var framed bytes.Buffer
	fw := wire.NewFrameWriter(&framed)
	if _, err := fw.Write(make([]byte, 8<<20)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := bytes.NewReader(framed.Bytes())
		if _, err := srv.pump(io.Discard, checkedSource(src, true, nil), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePattern measures the pattern writer every sender and
// the generate path use: one period table per call.
func BenchmarkWritePattern(b *testing.B) {
	var id wire.SessionID
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WritePattern(io.Discard, id, 0, 8<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelayTCP moves 8 MiB per iteration source → one depot → sink
// over loopback sockets, every byte compared at the sink: the guarded
// figure that crosses a kernel. plain arms no stage, so the depot
// relays it in the kernel; armed carries CRC frames through a
// fair-share depot, so it rides the pump with every stage the
// benchmark's tcp-armed workload has. A fast path bought at the pump's
// expense shows as armed slowing while plain gains. armed-256K is armed
// where a frame-sized chunk costs the most buffering: a 256 KiB
// pipeline — three chunks — behind a sender that frames at 32 KiB, as
// every core sender does, so each chunk is half empty; it reports the
// time the depot's reader spent blocked on the full pipeline.
func BenchmarkRelayTCP(b *testing.B) {
	const size = 8 << 20
	b.Run("plain", func(b *testing.B) {
		rig := newTCPRig(b, Config{})
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := rig.send(b, size); got.err != nil || got.bytes != size {
				b.Fatalf("sink read %d of %d bytes, err %v", got.bytes, size, got.err)
			}
		}
	})
	armed := func(cfg Config, frame int) func(b *testing.B) {
		return func(b *testing.B) {
			reg := obs.NewRegistry()
			cfg.FairShare, cfg.Metrics = fairshare.New(fairshare.Config{}), reg
			rig := newTCPRig(b, cfg)
			rig.drain = func(s *lsl.Session) (int64, error) { return readCycle(wire.NewFrameReader(s)) }
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := rig.open(b, wire.ChunkChecksumOption(), wire.SessionWeightOption(2))
				werr := writeCycle(pieceWriter{wire.NewFrameWriter(sess), frame}, size)
				sess.Close()
				if got := <-rig.sunk; werr != nil || got.err != nil || got.bytes != size {
					b.Fatalf("write err %v; sink read %d of %d bytes, err %v", werr, got.bytes, size, got.err)
				}
			}
			stall := float64(reg.Counter(MetricPumpStallNanos).Value()) / 1e6
			b.ReportMetric(stall/(float64(b.N)*size/1e9), "stall-ms/GB")
		}
	}
	b.Run("armed", armed(Config{}, wire.MaxFramePayload))
	b.Run("armed-256K", armed(Config{PipelineBytes: 256 << 10}, 32<<10))
}

// pieceWriter hands w at most n bytes per Write: a sender that frames
// at n.
type pieceWriter struct {
	w io.Writer
	n int
}

func (p pieceWriter) Write(b []byte) (n int, err error) {
	for len(b) > 0 && err == nil {
		var m int
		m, err = p.w.Write(b[:min(len(b), p.n)])
		n, b = n+m, b[m:]
	}
	return n, err
}

// BenchmarkRelayTCPSmall opens, fills and closes one 4 KiB session per
// iteration through one loopback depot: what a session costs a depot
// before its first payload byte — accept, header, onward dial, relay
// set-up and teardown.
func BenchmarkRelayTCPSmall(b *testing.B) {
	const size = 4 << 10
	rig := newTCPRig(b, Config{})
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rig.send(b, size); got.err != nil || got.bytes != size {
			b.Fatalf("sink read %d of %d bytes, err %v", got.bytes, size, got.err)
		}
	}
}
