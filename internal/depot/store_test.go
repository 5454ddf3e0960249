package depot

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

func TestSessionStorePutGet(t *testing.T) {
	s := memStore(t, 1000)
	id := wire.SessionID{1}
	if err := s.put(id, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, ok := s.get(id)
	if !ok || string(data) != "hello" {
		t.Fatalf("get = %q, %v", data, ok)
	}
	if _, ok := s.get(wire.SessionID{2}); ok {
		t.Fatal("missing id found")
	}
	used, entries, evicted := s.usage()
	if used != 5 || entries != 1 || evicted != 0 {
		t.Fatalf("usage = %d, %d, %d", used, entries, evicted)
	}
}

func TestSessionStoreReplace(t *testing.T) {
	s := memStore(t, 1000)
	id := wire.SessionID{1}
	s.put(id, []byte("aaaa"))
	s.put(id, []byte("bb"))
	data, _ := s.get(id)
	if string(data) != "bb" {
		t.Fatalf("replace failed: %q", data)
	}
	used, entries, _ := s.usage()
	if used != 2 || entries != 1 {
		t.Fatalf("usage after replace = %d, %d", used, entries)
	}
}

func TestSessionStoreEviction(t *testing.T) {
	s := memStore(t, 10)
	a, b, c := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(a, []byte("aaaa"))
	s.put(b, []byte("bbbb"))
	s.put(c, []byte("cccc")) // must evict a
	if _, ok := s.get(a); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := s.get(b); !ok {
		t.Fatal("newer entry evicted")
	}
	_, _, evicted := s.usage()
	if evicted != 1 {
		t.Fatalf("evicted = %d", evicted)
	}
}

func TestSessionStoreTooLarge(t *testing.T) {
	s := memStore(t, 4)
	if err := s.put(wire.SessionID{1}, []byte("too big")); !errors.Is(err, errTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestAsyncStoreAndFetch(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{}) // relay
	h.addDepot(epC, Config{}) // last depot: stores

	// Producer stores through the relay.
	payload := bytes.Repeat([]byte("async grid data "), 2048)
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeStore, Src: epA, Dst: epC, Route: []wire.Endpoint{epB}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Write(payload); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	waitFor(t, func() bool { return h.servers[epC].Stats().Stored == 1 })

	if st := h.servers[epC].Stats(); st.Stored != 1 || st.BytesStored != int64(len(payload)) {
		t.Fatalf("store stats = %d sessions, %d bytes", st.Stored, st.BytesStored)
	}

	// A different receiver discovers the session id and fetches from
	// the last depot.
	fetched, err := lsl.Fetch(h.dialerFrom("10.0.0.4"), epD, epC, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(fetched)
	if err != nil {
		t.Fatal(err)
	}
	fetched.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %d bytes, want %d", len(got), len(payload))
	}
	st := h.servers[epC].Stats()
	if st.Fetched != 1 || st.BytesFetched != int64(len(payload)) {
		t.Fatalf("fetch stats = %+v", st)
	}
	// Fetching again still works (store is not consumed).
	again, err := lsl.Fetch(h.dialerFrom("10.0.0.4"), epD, epC, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, again)
	again.Close()
	if n != int64(len(payload)) {
		t.Fatalf("second fetch got %d bytes", n)
	}
}

func TestFetchUnknownIDRefused(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{})
	_, err := lsl.Fetch(h.dialerFrom("10.0.0.1"), epA, epB, wire.SessionID{9, 9, 9})
	if !errors.Is(err, lsl.ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if st := h.servers[epB].Stats(); st.FetchMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreDirectAtDepot(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{StoreBytes: 1 << 20})
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeStore, Src: epA, Dst: epB})
	if err != nil {
		t.Fatal(err)
	}
	sess.Write([]byte("small"))
	sess.Close()
	waitFor(t, func() bool { return h.servers[epB].Stats().Stored == 1 })
	got, err := lsl.Fetch(h.dialerFrom("10.0.0.1"), epA, epB, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(got)
	got.Close()
	if string(data) != "small" {
		t.Fatalf("fetched %q", data)
	}
}

func TestFetchMissingOption(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := wire.NewSessionID()
	hd := &wire.Header{Version: wire.Version1, Type: wire.TypeFetch, Session: id, Src: epA, Dst: epB}
	wire.WriteHeader(conn, hd)
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().Errors == 1 })
}

func TestStoredSessionLookup(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{})
	if _, err := lsl.Fetch(h.dialerFrom("10.0.0.1"), epA, epB, wire.SessionID{1}); !errors.Is(err, lsl.ErrRefused) {
		t.Fatalf("fetch from an empty store: %v, want lsl.ErrRefused", err)
	}
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeStore, Src: epA, Dst: epB})
	if err != nil {
		t.Fatal(err)
	}
	sess.Write([]byte("abcde"))
	sess.Close()
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.Stored == 1 && st.BytesStored == 5
	})
}

// TestStoreStatus: a status query at StoredOffset is answered by the
// storing depot, which runs no sink: a query that waits while the
// store is read hears it held as soon as it is, one after gets its size
// at once, a store over the depot's budget reads as a fatal verdict and
// one shorter than it declared as a transient one, with nothing held.
func TestStoreStatus(t *testing.T) {
	srv, err := New(Config{Self: statusSelf, Dial: noDial, StoreBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeDialer(srv)
	store := func(n int, opts ...wire.Option) *lsl.Session {
		sess, err := lsl.Start(d, lsl.Spec{Type: wire.TypeStore, Dst: statusSelf, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WritePattern(sess, sess.ID(), 0, int64(n)); err != nil && n <= 4000 {
			t.Fatal(err) // the depot hangs up on a store over its budget
		}
		return sess
	}

	sess := store(1000)
	answer := make(chan wire.Status, 1)
	go func() {
		st, err := query(d, sess.ID(), wire.TraceID{}, StoredOffset)
		if err != nil {
			t.Error(err)
		}
		answer <- st
	}()
	for srv.store.waits.Load() == 0 {
		time.Sleep(time.Millisecond) // the query is waiting
	}
	start := time.Now()
	if _, err := WritePattern(sess, sess.ID(), 1000, 2000); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if st := <-answer; st != (wire.Status{End: 2000}) || time.Since(start) >= statusWait {
		t.Fatalf("status of a store that ended while asked = %+v after %v, want held at 2000 at once", st, time.Since(start))
	}
	if st, err := query(d, sess.ID(), wire.TraceID{}, StoredOffset); err != nil || st != (wire.Status{End: 2000}) {
		t.Fatalf("status of a held store = %+v, %v", st, err)
	}

	big := store(5000)
	big.Close()
	st, err := query(d, big.ID(), wire.TraceID{}, StoredOffset)
	if err != nil || st.Verdict != wire.VerdictFatal || st.End != 0 || !retry.IsFatal(st.Err()) {
		t.Fatalf("status of a store over budget = %+v (%v), %v; want fatal, nothing held", st, st.Err(), err)
	}
	short := store(1000, wire.GenerateOption(3000))
	short.Close()
	st, err = query(d, short.ID(), wire.TraceID{}, StoredOffset)
	if err != nil || st.Verdict != wire.VerdictTransient || st.End != 0 {
		t.Fatalf("status of a store cut short = %+v (%v), %v; want transient, nothing held", st, st.Err(), err)
	}
	if got := srv.Stats(); got.Stored != 1 || got.BytesStored != 2000 {
		t.Fatalf("stats = %+v, want the one store held", got)
	}
}

// TestStoreStatusPending: a query about a store still being read, or
// not yet begun, is answered pending once statusWait passes, carrying
// the bytes read so far.
func TestStoreStatusPending(t *testing.T) {
	srv, err := New(Config{Self: statusSelf, Dial: noDial})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeDialer(srv)
	sess, err := lsl.Start(d, lsl.Spec{Type: wire.TypeStore, Dst: statusSelf})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := WritePattern(sess, sess.ID(), 0, 1000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, c := range []struct {
		id  wire.SessionID
		end int64
	}{{sess.ID(), 1000}, {wire.SessionID{7}, 0}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			st, err := query(d, c.id, wire.TraceID{}, StoredOffset)
			if err != nil || st != (wire.Status{End: c.end, Verdict: wire.VerdictPending}) || time.Since(start) < statusWait {
				t.Errorf("status of %s after %v = %+v, %v; want pending at %d after %v", c.id, time.Since(start), st, err, c.end, statusWait)
			}
		}()
	}
	wg.Wait()
}
