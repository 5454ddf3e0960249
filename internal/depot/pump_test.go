package depot

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

func TestMulticastFanOut(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{}) // interior relay
	h.addDepot(epC, Config{}) // leaf
	h.addDepot(epD, Config{}) // leaf

	tree := &wire.TreeNode{
		Addr: epB,
		Children: []*wire.TreeNode{
			{Addr: epC},
			{Addr: epD},
		},
	}
	sess, err := startMulticast(h.dialerFrom("10.0.0.1"), epA, tree)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("stage me "), 10000)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	// Both leaves receive the full payload under the same session id.
	var got int
	deadline := 0
	for got < 2 && deadline < 2 {
		id := <-h.done
		if id != sess.ID() {
			continue
		}
		got++
	}
	h.mu.Lock()
	data := h.delivered[sess.ID()]
	h.mu.Unlock()
	if !bytes.Equal(data, payload) {
		t.Fatalf("leaf received %d bytes, want %d", len(data), len(payload))
	}
	if st := h.servers[epB].Stats(); st.Forwarded != 1 || st.BytesForwarded != int64(len(payload)) {
		t.Fatalf("interior stats = %+v", st)
	}
}

func TestMulticastThreeLevels(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	h.addDepot(epC, Config{})
	h.addDepot(epD, Config{})
	tree := &wire.TreeNode{
		Addr: epB,
		Children: []*wire.TreeNode{
			{Addr: epC, Children: []*wire.TreeNode{{Addr: epD}}},
		},
	}
	sess, err := startMulticast(h.dialerFrom("10.0.0.1"), epA, tree)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("down the chain")
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("leaf got %q", got)
	}
}

func TestMulticastSingleNodeTreeDeliversLocally(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	tree := &wire.TreeNode{Addr: epB}
	sess, err := startMulticast(h.dialerFrom("10.0.0.1"), epA, tree)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sess.Write([]byte("solo"))
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); string(got) != "solo" {
		t.Fatalf("got %q", got)
	}
}

func TestMulticastDepotNotInTree(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	tree := &wire.TreeNode{Addr: epC} // B is not in this tree
	// Dial B directly with C's tree: B must reject.
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := wire.MulticastTreeOption(tree)
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: wire.TypeMulticast,
		Session: id, Src: epA, Dst: epB, Options: []wire.Option{opt}}
	wire.WriteHeader(conn, hd)
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().Errors >= 1 })
}

func TestPumpMovesEverything(t *testing.T) {
	srv := &Server{cfg: Config{PipelineBytes: 64 << 10}}
	src := bytes.NewReader(bytes.Repeat([]byte{42}, 500<<10))
	var dst bytes.Buffer
	n, err := srv.pump(&dst, checkedSource(src, false, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500<<10 || dst.Len() != 500<<10 {
		t.Fatalf("pumped %d, buffered %d", n, dst.Len())
	}
}

func TestPumpPropagatesWriteError(t *testing.T) {
	srv := &Server{cfg: Config{PipelineBytes: 64 << 10}}
	src := bytes.NewReader(make([]byte, 1<<20))
	n, err := srv.pump(failWriter{}, checkedSource(src, false, nil), nil)
	if err == nil {
		t.Fatal("write error swallowed")
	}
	if n != 0 {
		t.Fatalf("reported %d bytes written", n)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestPumpPropagatesReadError(t *testing.T) {
	srv := &Server{cfg: Config{PipelineBytes: 64 << 10}}
	var dst bytes.Buffer
	_, err := srv.pump(&dst, checkedSource(failReader{}, false, nil), nil)
	if err == nil {
		t.Fatal("read error swallowed")
	}
}

type failReader struct{}

func (failReader) Read(p []byte) (int, error) { return 0, io.ErrUnexpectedEOF }

func TestPumpTinyPipeline(t *testing.T) {
	srv := &Server{cfg: Config{PipelineBytes: 1}} // depth clamps to 1
	src := bytes.NewReader(make([]byte, 100<<10))
	var dst bytes.Buffer
	n, err := srv.pump(&dst, checkedSource(src, false, nil), nil)
	if err != nil || n != 100<<10 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// TestPumpQueueStorageFollowsOccupancy is the reason the queue is not
// one channel of PipelineBytes/chunkSize slots: a session the writer
// keeps up with ends with the slots it started with.
func TestPumpQueueStorageFollowsOccupancy(t *testing.T) {
	q := newPumpQueue(DefaultPipelineBytes / chunkSize)
	for i := 0; i < 10000; i++ {
		q.push(chunk{data: []byte{byte(i)}})
		if c, ok := q.pop(); !ok || c.data[0] != byte(i) {
			t.Fatalf("chunk %d: got %v, %v", i, c.data, ok)
		}
	}
	if q.total != pumpQueueStart || cap(q.tail.ch) != pumpQueueStart {
		t.Fatalf("an always-drained queue grew to %d slots", q.total)
	}
}

// TestPumpQueueBoundAndOrder fills the queue against a paused writer:
// the reader must block holding exactly depth chunks however many
// segments that took and wherever the writer stopped, and everything
// must come out in push order.
func TestPumpQueueBoundAndOrder(t *testing.T) {
	for _, tc := range []struct{ depth, popFirst, popAt int }{
		{depth: 1},
		{depth: 5},
		{depth: pumpQueueStart},
		{depth: pumpQueueStart + 1},
		{depth: 70}, // 16, 64, 70: two segments filled on credit
		{depth: 1024},
		{depth: 1024, popFirst: 10, popAt: 16},   // writer stopped inside the first segment
		{depth: 1024, popFirst: 100, popAt: 300}, // ... inside the third
		{depth: 70, popFirst: 20, popAt: 60},
	} {
		q := newPumpQueue(tc.depth)
		total := 3*tc.depth + 7
		var pushed atomic.Int64
		var stalled atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < total; i++ {
				if tc.popFirst > 0 && i == tc.popAt {
					popInOrder(t, q, 0, tc.popFirst)
				}
				stalled.Add(int64(q.push(chunk{data: []byte{byte(i), byte(i >> 8)}})))
				pushed.Add(1)
			}
			q.push(chunk{})
			q.close()
		}()
		want := int64(tc.depth + tc.popFirst)
		waitFor(t, func() bool { return pushed.Load() >= want })
		time.Sleep(20 * time.Millisecond)
		if got := pushed.Load(); got != want {
			t.Fatalf("depth %d, %d popped: reader ran %d chunks ahead of the writer, want %d",
				tc.depth, tc.popFirst, got-int64(tc.popFirst), tc.depth)
		}
		if !popInOrder(t, q, tc.popFirst, total) {
			t.Fatalf("depth %d, %d popped at %d: order broken", tc.depth, tc.popFirst, tc.popAt)
		}
		if c, ok := q.pop(); !ok || c.data != nil {
			t.Fatalf("depth %d: no terminal chunk", tc.depth)
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("depth %d: queue not closed after the terminal chunk", tc.depth)
		}
		<-done
		if stalled.Load() <= 0 {
			t.Fatalf("depth %d: a reader blocked on a full queue reported no stall", tc.depth)
		}
	}
}

// popInOrder pops chunks from..to-1 as the pump's writer would and
// reports whether they carried their push index.
func popInOrder(t *testing.T, q *pumpQueue, from, to int) bool {
	for i := from; i < to; i++ {
		c, ok := q.pop()
		if !ok || len(c.data) != 2 || int(c.data[0])|int(c.data[1])<<8 != i {
			t.Errorf("chunk %d came out as %v, %v", i, c.data, ok)
			return false
		}
	}
	return true
}

func TestPipeConnInterface(t *testing.T) {
	pr, pw := io.Pipe()
	c := pipeConn{PipeReader: pr}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("pipeConn should be read-only")
	}
	if c.LocalAddr().Network() != "pipe" || c.RemoteAddr().String() != "pipe" {
		t.Fatal("pipe addresses wrong")
	}
	if err := c.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go pw.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read via pipeConn: %q, %v", buf, err)
	}
	c.Close()
}

// startMulticast opens a staging session from src fanned out over tree.
func startMulticast(d lsl.Dialer, src wire.Endpoint, tree *wire.TreeNode) (*lsl.Session, error) {
	opt, err := wire.MulticastTreeOption(tree)
	if err != nil {
		return nil, err
	}
	return lsl.Start(d, lsl.Spec{Type: wire.TypeMulticast, Src: src, Dst: src, Entry: tree.Addr, Options: []wire.Option{opt}})
}
