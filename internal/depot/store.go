package depot

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// DefaultStoreBytes bounds a depot's asynchronous-session storage.
const DefaultStoreBytes = 256 << 20

// StoredOffset is the Query offset that asks the storing depot, not a
// sink, about a store session: a status query at it is answered from
// the depot's own store — held (End is its size), refused (a verdict,
// End 0: nothing is held), or pending with the bytes read so far.
const StoredOffset = math.MaxInt64 - 1

// storeEntry is one stored payload, resident in exactly one tier:
// data is non-nil while it sits in memory, path is non-empty once it
// has been spilled to the disk spool.
type storeEntry struct {
	id   wire.SessionID
	size int64
	data []byte
	path string
}

// sessionStore holds stored payloads keyed by session id — the
// short-term, cooperative storage of user data the paper's
// introduction proposes. Entries live on one recency list (front =
// most recently used) spanning both tiers: when the memory budget
// overflows, the least-recently-used in-memory payload spills to the
// disk spool (or is evicted when no spool is configured); when the
// spool budget overflows, the least-recently-used on-disk payload is
// evicted for good.
type sessionStore struct {
	mu        sync.Mutex
	capacity  int64 // memory budget
	spoolCap  int64 // disk budget (0 without a spool)
	sp        *spool
	memUsed   int64
	diskUsed  int64
	entries   map[wire.SessionID]*list.Element // of *storeEntry
	lru       *list.List
	evicted   int64
	spilled   int64
	recovered int64
	restored  int64
	// reindexDropped counts spool files crash recovery deleted instead
	// of re-indexing (interrupted .tmp writes, .p files failing the
	// digest in their name); set before the store is shared: no lock.
	reindexDropped int64
	// For status queries at StoredOffset: the bytes read so far of each
	// store session being read, the error that refused each of the last
	// maxRecords refused, and arrived, closed and replaced as each ends.
	reading  map[wire.SessionID]*atomic.Int64
	rejected map[wire.SessionID]error
	arrived  chan struct{}
	waits    atomic.Int32 // status queries waiting
}

// newSessionStore builds the store; with a spool directory it also
// runs crash recovery, re-indexing every verifiable spooled payload.
func newSessionStore(capacity int64, spoolDir string, spoolBytes int64) (*sessionStore, error) {
	if capacity <= 0 {
		capacity = DefaultStoreBytes
	}
	s := &sessionStore{
		capacity: capacity,
		entries:  make(map[wire.SessionID]*list.Element),
		lru:      list.New(),
		reading:  make(map[wire.SessionID]*atomic.Int64),
		rejected: make(map[wire.SessionID]error),
		arrived:  make(chan struct{}),
	}
	if spoolDir != "" {
		sp, err := newSpool(spoolDir)
		if err != nil {
			return nil, err
		}
		s.sp = sp
		s.spoolCap = spoolBytes
		if s.spoolCap <= 0 {
			s.spoolCap = DefaultSpoolBytes
		}
		found, dropped, err := sp.recover()
		if err != nil {
			return nil, err
		}
		s.reindexDropped = dropped
		// recover returns oldest-modified first; pushing each to the
		// front leaves the newest payload most-recently-used.
		for _, e := range found {
			ent := &storeEntry{id: e.id, size: e.size, path: e.path}
			s.entries[e.id] = s.lru.PushFront(ent)
			s.diskUsed += e.size
			s.recovered++
		}
		s.rebalance()
	}
	return s, nil
}

// errTooLarge rejects single payloads beyond the in-memory budget.
var errTooLarge = errors.New("depot: payload exceeds store capacity")

// put stores data under id, spilling and evicting least-recently-used
// entries as needed. Storing under an existing id replaces the
// previous payload.
func (s *sessionStore) put(id wire.SessionID, data []byte) error {
	if int64(len(data)) > s.capacity {
		return errTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[id]; ok {
		s.drop(el)
	}
	ent := &storeEntry{id: id, size: int64(len(data)), data: data}
	s.entries[id] = s.lru.PushFront(ent)
	s.memUsed += ent.size
	s.rebalance()
	return nil
}

// rebalance restores both byte budgets, called with the lock held.
// Memory overflow spills (or, with no spool, evicts) the coldest
// in-memory entry; spool overflow evicts the coldest on-disk entry.
func (s *sessionStore) rebalance() {
	for s.memUsed > s.capacity {
		el := s.coldest(func(e *storeEntry) bool { return e.data != nil })
		if el == nil {
			break
		}
		ent := el.Value.(*storeEntry)
		if s.sp != nil {
			if path, err := s.sp.write(ent.id, ent.data); err == nil {
				ent.path = path
				ent.data = nil
				s.memUsed -= ent.size
				s.diskUsed += ent.size
				s.spilled++
				continue
			}
		}
		s.drop(el)
		s.evicted++
	}
	for s.sp != nil && s.diskUsed > s.spoolCap {
		el := s.coldest(func(e *storeEntry) bool { return e.path != "" })
		if el == nil {
			break
		}
		s.drop(el)
		s.evicted++
	}
}

// coldest walks the recency list from its least-recently-used end and
// returns the first element matching the tier predicate.
func (s *sessionStore) coldest(match func(*storeEntry) bool) *list.Element {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		if match(el.Value.(*storeEntry)) {
			return el
		}
	}
	return nil
}

// drop removes an entry from the map, the recency list, its byte
// accounting, and (for an on-disk entry) the spool directory.
func (s *sessionStore) drop(el *list.Element) {
	ent := el.Value.(*storeEntry)
	s.lru.Remove(el)
	delete(s.entries, ent.id)
	if ent.data != nil {
		s.memUsed -= ent.size
	} else {
		s.diskUsed -= ent.size
		s.sp.remove(ent.path)
	}
}

// get returns the stored payload (without removing it), promoting the
// entry to most-recently-used. A spooled payload is read back from
// disk and verified against the digest in its file name; one damaged
// at rest is dropped and reported as a miss rather than served wrong.
func (s *sessionStore) get(id wire.SessionID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*storeEntry)
	if ent.data != nil {
		s.lru.MoveToFront(el)
		return ent.data, true
	}
	data, err := s.sp.read(ent.path)
	if err != nil {
		s.drop(el)
		return nil, false
	}
	s.restored++
	s.lru.MoveToFront(el)
	return data, true
}

// usage reports (bytes held across both tiers, entry count, evictions).
func (s *sessionStore) usage() (int64, int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUsed + s.diskUsed, len(s.entries), s.evicted
}

// spoolUsage reports the disk tier: bytes on disk, entries spilled so
// far, entries re-indexed by crash recovery, and payloads read back.
func (s *sessionStore) spoolUsage() (bytes int64, spilled, recovered, restored int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskUsed, s.spilled, s.recovered, s.restored
}

// handleStore implements the storing half of asynchronous sessions: a
// TypeStore session addressed to this depot is absorbed into the store;
// one addressed elsewhere is forwarded like data with its type intact.
func (s *Server) handleStore(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	next, rest, local, err := s.nextHop(sess.Header)
	if err != nil {
		if s.refuseRouting(sess, f, err) {
			return nil
		}
		return err
	}
	if !local {
		defer s.track(f, sess.Header, "store", next)()
		out, err := s.cfg.Dial.Dial(next.String())
		if err != nil {
			return fmt.Errorf("store forward dial %s: %w", next, err)
		}
		defer out.Close()
		f.emit(obs.KindConnect, obs.Event{Peer: next.String()})
		fh := forwardHeader(sess.Header, rest, f.hopIndex())
		if err := wire.WriteHeader(out, fh); err != nil {
			return err
		}
		_, err = s.pump(out, checkedSource(sess, sess.Header.Checksummed(), nil), f)
		s.st.forwarded.Add(1)
		return s.flagCorrupt(sess, f, err)
	}

	defer s.track(f, sess.Header, "store", wire.Endpoint{})()
	// The storing depot is the payload's terminus: a checksummed stream
	// is verified and unframed here, so the store holds raw bytes.
	var src io.Reader = sess
	if sess.Header.Checksummed() {
		src = wire.NewFrameReader(sess)
	}
	opt, _ := sess.Header.Option(wire.OptGenerate)
	size, _ := wire.ParseGenerate(opt) // 0 from a sender that declares none
	n, err := s.store.receive(sess.ID(), int64(size), src, func(n int64) {
		s.st.stored.Add(1)
		s.st.bytesStored.Add(n)
	})
	f.addBytes(n)
	return s.flagCorrupt(sess, f, err)
}

// receive reads one store session's payload from r and holds it under
// id, calling held with its size once it does. A payload that is not
// the size its sender declared (size, when positive) was cut short and
// is refused, not held. Status queries see its progress while it
// reads and, once it ends (after held), the payload held or the error
// that refused it.
func (s *sessionStore) receive(id wire.SessionID, size int64, r io.Reader, held func(n int64)) (int64, error) {
	read := new(atomic.Int64)
	s.mu.Lock()
	s.reading[id] = read
	s.mu.Unlock()
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(progressReader{r, read}, s.capacity+1))
	switch {
	case err != nil:
		err = fmt.Errorf("store read: %w", err)
	case size > 0 && n != size && n <= s.capacity:
		err = fmt.Errorf("store read %d of %d bytes: %w", n, size, io.ErrUnexpectedEOF)
	default:
		if err = s.put(id, buf.Bytes()); err == nil {
			held(n) // status queries see it held only once reading ends below
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reading[id] == read {
		delete(s.reading, id)
	}
	delete(s.rejected, id)
	if err != nil {
		if len(s.rejected) >= maxRecords {
			clear(s.rejected)
		}
		s.rejected[id] = err
	}
	close(s.arrived)
	s.arrived = make(chan struct{})
	return n, err
}

// progressReader counts what passes through it into n.
type progressReader struct {
	r io.Reader
	n *atomic.Int64
}

func (p progressReader) Read(b []byte) (int, error) {
	m, err := p.r.Read(b)
	p.n.Add(int64(m))
	return m, err
}

// status is what the store can say of session id: pending while it is
// read, with the bytes read so far; then held (End is its size) or
// refused, both final; otherwise pending. A pending answer comes with
// a channel closed when that may change.
func (s *sessionStore) status(id wire.SessionID) (wire.Status, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if read := s.reading[id]; read != nil {
		return wire.Status{End: read.Load(), Verdict: wire.VerdictPending}, s.arrived
	}
	if el, ok := s.entries[id]; ok {
		return wire.Status{End: el.Value.(*storeEntry).size}, nil
	}
	if err, ok := s.rejected[id]; ok {
		return wire.StatusOf(0, false, err, retry.IsFatal(err)), nil
	}
	return wire.Status{Verdict: wire.VerdictPending}, s.arrived
}

// answer serves a status query at StoredOffset from the store, waiting
// as a Sink's status answer does.
func (s *sessionStore) answer(sess *lsl.Session) error {
	return answerStatus(sess, &s.waits, func(stop <-chan struct{}) wire.Status {
		for {
			st, changed := s.status(sess.ID())
			if changed == nil {
				return st
			}
			select {
			case <-changed:
			case <-stop:
				st, _ = s.status(sess.ID())
				return st
			}
		}
	})
}

// handleFetch implements the reading half: the receiver names a stored
// session id and the depot streams the payload back as a TypeData
// response on the same connection.
func (s *Server) handleFetch(sess *lsl.Session) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptFetchID)
	if !found {
		return fmt.Errorf("fetch session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	id, err := wire.ParseFetchID(opt)
	if err != nil {
		return err
	}
	data, ok := s.store.get(id)
	if !ok {
		// Unknown id: answer with a refusal so the receiver can
		// distinguish "not here" from a transport failure.
		s.st.fetchMisses.Add(1)
		return lsl.Refuse(sess.Conn, sess.Header)
	}
	resp := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeData,
		Session: id,
		Src:     s.cfg.Self,
		Dst:     sess.Header.Src,
	}
	if err := wire.WriteHeader(sess.Conn, resp); err != nil {
		return err
	}
	n, werr := sess.Conn.Write(data)
	// Bytes that made it onto the wire are counted even when the write
	// fails partway — partial transfers must not vanish from the stats.
	s.st.bytesFetched.Add(int64(n))
	if werr != nil {
		return fmt.Errorf("fetch write: %w", werr)
	}
	s.st.fetched.Add(1)
	return nil
}

// SpoolUsage reports the durable disk tier: bytes spooled, entries
// spilled from memory, entries re-indexed by crash recovery, and
// spooled payloads read back since start.
func (s *Server) SpoolUsage() (bytes int64, spilled, recovered, restored int64) {
	return s.store.spoolUsage()
}
