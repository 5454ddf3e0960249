package depot

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/netlogistics/lsl/internal/lsl"
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

	if used, entries, _ := h.servers[epC].StoreUsage(); entries != 1 || used != int64(len(payload)) {
		t.Fatalf("store usage = %d bytes, %d entries", used, entries)
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
	if _, ok := srv.StoredSession(wire.SessionID{1}); ok {
		t.Fatal("empty store reported a session")
	}
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Type: wire.TypeStore, Src: epA, Dst: epB})
	if err != nil {
		t.Fatal(err)
	}
	sess.Write([]byte("abcde"))
	sess.Close()
	waitFor(t, func() bool {
		n, ok := srv.StoredSession(sess.ID())
		return ok && n == 5
	})
}
