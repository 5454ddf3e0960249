package depot

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// addBytes records payload progress in the live session entry.
func (f *flow) addBytes(n int64) {
	if f != nil {
		f.entry.AddBytes(n)
	}
}

// addQueued moves the session's pipeline-occupancy figure.
func (f *flow) addQueued(n int64) {
	if f != nil {
		f.entry.AddQueued(n)
	}
}

// firstByte reports whether this is the first payload chunk of the
// flow (false for a nil flow, so no event fires).
func (f *flow) firstByte() bool {
	return f != nil && f.first.CompareAndSwap(false, true)
}

// acquire blocks until the flow holds fair-share credit for n bytes.
// Free for a nil flow or an unscheduled depot, so bare pumps and
// depots without a scheduler pay nothing.
func (f *flow) acquire(n int) {
	if f != nil {
		f.fs.Acquire(n)
	}
}

// chunk is one slot of a pump's queue: a pooled buffer holding payload,
// or the terminal item (data == nil) carrying the reader's error.
type chunk struct {
	data []byte
	buf  *[]byte // pool token; nil for the terminal item
	err  error
}

// pumpQueueStart is the slot count a pump's queue starts with, and
// pumpQueueGrowth the factor it grows by each time the reader finds it
// full short of the pipeline bound. A session the downstream sublink
// never back-pressures — every small object, every balanced chain —
// ends having allocated these 16 slots, not PipelineBytes/chunkSize.
const (
	pumpQueueStart  = 16
	pumpQueueGrowth = 4
)

// pumpQueue is the FIFO between a pump's reader goroutine (push) and
// its writer (pop): a chain of channel segments, so a chunk still
// costs one channel hand-off, but the storage follows the occupancy.
// When the reader finds the tail segment full and smaller than the
// pipeline bound, it chains a larger segment, publishes it in
// tail.next and closes the old channel; the writer drains the old
// segment to its close and then follows next, which keeps FIFO order.
//
// The bound stays hard across a hand-over. A new tail whose capacity
// could overshoot it, by whatever the closed segments still hold, is
// filled on credit until the writer reaches it: the reader spends no
// more than depth minus what is queued, recounting when it runs out.
type pumpQueue struct {
	depth int // PipelineBytes in chunks: the bound on queued chunks

	// Reader side.
	tail    *pumpSegment
	old     *pumpSegment  // oldest segment that may still hold chunks
	total   int           // summed capacity of every segment chained so far
	reached chan struct{} // non-nil while the tail is filled on credit
	credit  int           // chunks the tail may take before a recount

	// Writer side.
	head *pumpSegment
}

type pumpSegment struct {
	ch      chan chunk
	next    *pumpSegment  // set by the reader before it closes ch
	reached chan struct{} // closed by the writer on arrival; nil unless the reader may wait on it
}

func newPumpQueue(depth int) *pumpQueue {
	if depth < 1 {
		depth = 1
	}
	n := pumpQueueStart
	if n > depth {
		n = depth
	}
	seg := &pumpSegment{ch: make(chan chunk, n)}
	return &pumpQueue{depth: depth, tail: seg, old: seg, total: n, head: seg}
}

// push appends c, blocking while the queue holds depth chunks, and
// returns how long it blocked: the time the upstream sublink spent
// back-pressured by this depot. Reader goroutine only.
func (q *pumpQueue) push(c chunk) (stall time.Duration) {
	for {
		if q.reached != nil {
			if q.spend() {
				q.tail.ch <- c // holds less than its credit: never blocks
				return stall
			}
			if q.reached != nil {
				// Full, some of it in closed segments: there is no
				// channel to block on until the writer has drained those.
				t0 := time.Now()
				<-q.reached
				stall += time.Since(t0)
				q.reached = nil
			}
		}
		select {
		case q.tail.ch <- c:
			return stall
		default:
		}
		if cap(q.tail.ch) == q.depth {
			t0 := time.Now()
			q.tail.ch <- c
			return stall + time.Since(t0)
		}
		q.grow()
	}
}

// grow chains a larger tail segment and closes the full one.
func (q *pumpQueue) grow() {
	n := cap(q.tail.ch) * pumpQueueGrowth
	if n > q.depth {
		n = q.depth
	}
	seg := &pumpSegment{ch: make(chan chunk, n)}
	if q.total+n > q.depth {
		seg.reached = make(chan struct{})
		q.reached, q.credit = seg.reached, 0
	}
	q.total += n
	q.tail.next = seg
	close(q.tail.ch)
	q.tail = seg
}

// spend takes one chunk of credit for the tail. It reports false when
// the queue holds depth chunks, and also — having left credit mode —
// once every closed segment is drained. The count is exact when taken
// and can only be overtaken by the writer: nothing is added to a
// closed channel.
func (q *pumpQueue) spend() bool {
	if q.credit == 0 {
		for q.old != q.tail && len(q.old.ch) == 0 {
			q.old = q.old.next
		}
		if q.old == q.tail {
			q.reached = nil
			return false
		}
		queued := 0
		for s := q.old; s != nil; s = s.next {
			queued += len(s.ch)
		}
		if queued >= q.depth {
			return false
		}
		q.credit = q.depth - queued
	}
	q.credit--
	return true
}

// close ends the stream after the terminal chunk. Reader goroutine
// only.
func (q *pumpQueue) close() { close(q.tail.ch) }

// pop returns the next chunk in push order; ok is false once the
// reader has closed the queue and it is drained. One goroutine at a
// time.
func (q *pumpQueue) pop() (c chunk, ok bool) {
	for {
		if c, ok = <-q.head.ch; ok {
			return c, true
		}
		if q.head.next == nil {
			return chunk{}, false
		}
		q.head = q.head.next
		if q.head.reached != nil {
			close(q.head.reached)
		}
	}
}

// countForwarded records n payload bytes moved downstream, in the
// server's counters and the session's live progress.
func (s *Server) countForwarded(f *flow, n int64) {
	s.st.bytesForwarded.Add(n)
	s.met.bytesFwd.Add(n)
	f.addBytes(n)
}

// lastByte closes a relay's accounting, whichever relay it was: the
// last-byte event and the sublink's achieved throughput.
func (s *Server) lastByte(f *flow, start time.Time, written int64) {
	f.emit(obs.KindLastByte, obs.Event{Bytes: written})
	if elapsed := time.Since(start).Seconds(); elapsed > 0 && written > 0 {
		s.met.throughput.Observe(float64(written) * 8 / 1e6 / elapsed)
	}
}

// source is a pump's read side. Each call of next lands the next piece
// of the stream in a pooled buffer from get and returns the part of it
// to send downstream — one Write, nothing copied in between.
type source struct {
	get  func() *[]byte
	next func(buf []byte) ([]byte, error)
}

// checkedSource returns the source a pump moves a session's payload
// from. A plain session is a chunk per Read. On a checksummed session a
// chunk is one frame, read into a buffer with room for the largest and
// verified there: a corrupting hop is caught by its successor, and a
// frame is forwarded only once its CRC held, under the header this hop
// checked it against. The tap, if any, sees exactly what is forwarded,
// before it is queued — on a checksummed session whole, proven frames.
func checkedSource(r io.Reader, verify bool, tap *cacheTap) source {
	read, get := r.Read, bufpool.Get
	if verify {
		read, get = wire.NewFrameScanner(r).ReadFrame, bufpool.GetFrame
	}
	return source{get: get, next: func(buf []byte) ([]byte, error) {
		n, err := read(buf)
		tap.put(buf[:n])
		return buf[:n], err
	}}
}

// pump moves the session payload from src to dst through a bounded
// pipeline of PipelineBytes: a reader goroutine fills chunks into a
// queue whose capacity grows with its occupancy up to the pipeline
// size, and the writer drains it. When the downstream sublink is
// slower, the queue fills and the reader — and therefore the upstream
// TCP connection — blocks: the depot back-pressure of Figure 5.
//
// Chunk buffers come from the shared bufpool: a chunk lives from its
// read until the downstream write completes (possibly queued for the
// whole pipeline depth), and is then recycled, so a pump's allocation
// cost is its steady-state pipeline working set rather than one buffer
// per chunk forwarded — which matters ×N when a striped session runs
// N pumps through one depot. The queue is sized by the buffers' capacity,
// so PipelineBytes bounds a session's memory whatever its chunks carry.
//
// The pump is also where the logistical effect is observed: every chunk
// moved is recorded as it moves (so partial transfers never lose bytes
// on an error path), pipeline occupancy is kept as a live gauge that
// rises exactly when the downstream sublink back-pressures, and the
// time the reader spends blocked on a full pipeline is accounted as
// stall time. f may be nil (bare pumps in tests): accounting still
// lands in the server's counters, only per-session reporting is
// skipped.
func (s *Server) pump(dst io.Writer, src source, f *flow) (int64, error) {
	bp := src.get()
	q := newPumpQueue(s.cfg.PipelineBytes / cap(*bp))
	enqueue := func(it chunk) {
		n := int64(len(it.data))
		s.met.occupancy.Add(n)
		f.addQueued(n)
		if stall := q.push(it); stall > 0 {
			// Pipeline full: the upstream sublink was blocked on this
			// depot — Figure 5 back-pressure, measured.
			s.met.stallNanos.Add(stall.Nanoseconds())
		}
	}
	dequeued := func(it chunk) {
		n := int64(len(it.data))
		s.met.occupancy.Add(-n)
		f.addQueued(-n)
		bufpool.Put(it.buf)
	}
	go func() {
		for {
			data, err := src.next(*bp)
			if len(data) > 0 {
				enqueue(chunk{data: data, buf: bp})
				bp = src.get()
			}
			if err != nil {
				bufpool.Put(bp)
				if errors.Is(err, io.EOF) {
					err = nil
				}
				enqueue(chunk{err: err})
				q.close()
				return
			}
		}
	}()

	start := time.Now()
	var written int64
	finish := func(err error) (int64, error) {
		s.lastByte(f, start, written)
		return written, err
	}
	for {
		it, ok := q.pop()
		if !ok {
			break
		}
		if it.data == nil {
			if it.err != nil {
				return finish(fmt.Errorf("pump read: %w", it.err))
			}
			break
		}
		if f.firstByte() {
			f.emit(obs.KindFirstByte, obs.Event{})
		}
		// Fair sharing gates the write, not the read: upstream bytes
		// still land in the pipeline at full speed, but the contended
		// resource — the downstream sublink — is granted by weight.
		f.acquire(len(it.data))
		t0 := time.Now()
		n, err := dst.Write(it.data)
		s.met.chunkWrite.Observe(time.Since(t0).Seconds())
		dequeued(it)
		// Record bytes as they move, not when the pump completes:
		// partial transfers keep their accounting on every error path.
		written += int64(n)
		s.countForwarded(f, int64(n))
		if err != nil {
			// Drain the reader goroutine so it can exit, releasing the
			// occupancy the queued chunks still hold.
			go func() {
				for {
					it, ok := q.pop()
					if !ok {
						return
					}
					dequeued(it)
				}
			}()
			return finish(fmt.Errorf("pump write: %w", err))
		}
	}
	return finish(nil)
}

// handleMulticast implements the synchronous application-layer
// multicast staging option: this depot locates itself in the carried
// tree, opens a session to each child, and duplicates the payload to
// all of them (and to local delivery when it is a leaf or the tree
// marks it as a consumer).
func (s *Server) handleMulticast(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptMulticastTree)
	if !found {
		return fmt.Errorf("multicast session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	tree, err := wire.ParseMulticastTree(opt)
	if err != nil {
		return err
	}
	node := findNode(tree, s.cfg.Self)
	if node == nil {
		return fmt.Errorf("multicast session %s: depot %s not in tree", sess.Header.Session, s.cfg.Self)
	}
	defer s.track(f, sess.Header, "multicast", wire.Endpoint{})()

	// Open one onward session per child, carrying that child's subtree.
	var writers []io.Writer
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, child := range node.Children {
		childOpt, err := wire.MulticastTreeOption(child)
		if err != nil {
			return err
		}
		out, err := s.cfg.Dial.Dial(child.Addr.String())
		if err != nil {
			return fmt.Errorf("multicast dial %s: %w", child.Addr, err)
		}
		closers = append(closers, out)
		f.emit(obs.KindConnect, obs.Event{Peer: child.Addr.String()})
		fh := &wire.Header{
			Version: sess.Header.Version,
			Type:    wire.TypeMulticast,
			Session: sess.Header.Session,
			Src:     sess.Header.Src,
			Dst:     child.Addr,
			Options: []wire.Option{childOpt, wire.HopIndexOption(uint16(f.hopIndex()))},
		}
		if topt, ok := sess.Header.Option(wire.OptTraceID); ok {
			// The trace id rides every branch of the staging tree.
			fh.AddOption(topt)
		}
		if err := wire.WriteHeader(out, fh); err != nil {
			return err
		}
		writers = append(writers, out)
	}

	// A leaf consumes the stream locally; an interior node relays.
	var localW *io.PipeWriter
	var localDone chan error
	if len(node.Children) == 0 {
		pr, pw := io.Pipe()
		localW = pw
		localDone = make(chan error, 1)
		inner := &lsl.Session{Conn: pipeConn{PipeReader: pr}, Header: sess.Header}
		// The pump already records this flow's progress; give delivery
		// an entry-less clone so session-table bytes aren't doubled.
		fd := &flow{srv: s, id: f.id, trace: f.trace, hop: f.hopIndex()}
		go func() { localDone <- s.deliver(inner, fd) }()
		writers = append(writers, pw)
	}

	var dst io.Writer
	switch len(writers) {
	case 0:
		dst = io.Discard
	case 1:
		dst = writers[0]
	default:
		dst = io.MultiWriter(writers...)
	}
	_, err = s.pump(dst, checkedSource(sess, sess.Header.Checksummed(), nil), f)
	s.st.forwarded.Add(1)
	if localW != nil {
		localW.Close()
		if derr := <-localDone; derr != nil && err == nil {
			err = derr
		}
	}
	return s.flagCorrupt(sess, f, err)
}

// hopIndex returns the flow's hop position (0 for a nil flow).
func (f *flow) hopIndex() int {
	if f == nil {
		return 0
	}
	return f.hop
}

// findNode locates the tree node whose address matches self.
func findNode(n *wire.TreeNode, self wire.Endpoint) *wire.TreeNode {
	if n.Addr == self {
		return n
	}
	for _, c := range n.Children {
		if found := findNode(c, self); found != nil {
			return found
		}
	}
	return nil
}
