package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

func TestAsyncStoreAndFetch(t *testing.T) {
	sys := smallSystem(t)
	const size = 96 << 10

	// Producer stages the data at the Denver depot; the consumer is
	// not yet online.
	stored, err := sys.StoreAt(topo.UCSB, topo.Denver, size)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Bytes != size {
		t.Fatalf("stored %d bytes", stored.Bytes)
	}
	if stored.Path[0] != topo.UCSB || stored.Path[len(stored.Path)-1] != topo.Denver {
		t.Fatalf("path = %v", stored.Path)
	}

	// Later, a consumer at UIUC discovers the session id and fetches.
	got, err := sys.FetchFrom(topo.UIUC, topo.Denver, stored.Session)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bytes != size {
		t.Fatalf("fetched %d of %d bytes", got.Bytes, size)
	}
	if got.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", got.Bandwidth)
	}

	// A second consumer can fetch the same session.
	again, err := sys.FetchFrom(topo.UF, topo.Denver, stored.Session)
	if err != nil {
		t.Fatal(err)
	}
	if again.Bytes != size {
		t.Fatalf("second fetch got %d bytes", again.Bytes)
	}
}

func TestAsyncFetchUnknownSession(t *testing.T) {
	sys := smallSystem(t)
	if _, err := sys.FetchFrom(topo.UIUC, topo.Denver, wire.SessionID{1, 2, 3}); err == nil {
		t.Fatal("unknown session fetch succeeded")
	}
}

func TestAsyncStoreValidation(t *testing.T) {
	sys := smallSystem(t)
	if _, err := sys.StoreAt(topo.UCSB, topo.UIUC, 1024); err == nil ||
		!strings.Contains(err.Error(), "no depot") {
		t.Fatalf("store at non-depot: %v", err)
	}
	if _, err := sys.StoreAt(topo.UCSB, topo.Denver, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := sys.StoreAt("nope", topo.Denver, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := sys.FetchFrom("nope", topo.Denver, wire.SessionID{}); err == nil {
		t.Fatal("unknown dest accepted")
	}
}

func TestAsyncStoreHonorsContext(t *testing.T) {
	sys := smallSystem(t)

	// A canceled context must store nothing: it fails with the
	// context's error before dialing, instead of sending the payload
	// and racing the depot's confirmation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.StoreAtContext(ctx, topo.UCSB, topo.Denver, 64<<10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A generous deadline leaves the normal path untouched.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	stored, err := sys.StoreAtContext(ctx2, topo.UCSB, topo.Denver, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Bytes != 64<<10 {
		t.Fatalf("stored %d bytes", stored.Bytes)
	}
	// The depot holds the second store and nothing of the first.
	di, _ := sys.Topo.HostIndex(topo.Denver)
	if st := sys.depots[di].Stats(); st.Stored != 1 || st.BytesStored != 64<<10 {
		t.Fatalf("depot stored %d sessions of %d bytes, want only the confirmed one", st.Stored, st.BytesStored)
	}
	if got, err := sys.FetchFrom(topo.UIUC, topo.Denver, stored.Session); err != nil || got.Bytes != 64<<10 {
		t.Fatalf("confirmed store fetched as %d bytes, %v", got.Bytes, err)
	}
}

// TestAsyncStoreConfirmed: a store returns once the storing depot holds
// the whole session, as the depot itself answers a status query, so
// the depot's counters show it and a fetch issued at once finds it.
func TestAsyncStoreConfirmed(t *testing.T) {
	sys := smallSystem(t)
	di, _ := sys.Topo.HostIndex(topo.Denver)
	const size = 256 << 10
	for i := int64(1); i <= 3; i++ {
		stored, err := sys.StoreAt(topo.UCSB, topo.Denver, size)
		if err != nil {
			t.Fatal(err)
		}
		if st := sys.depots[di].Stats(); st.Stored != i || st.BytesStored != i*size {
			t.Fatalf("store %d confirmed, but the depot stored %d sessions of %d bytes", i, st.Stored, st.BytesStored)
		}
		if got, err := sys.FetchFrom(topo.UIUC, topo.Denver, stored.Session); err != nil || got.Bytes != size {
			t.Fatalf("fetch of store %d = %d bytes, %v", i, got.Bytes, err)
		}
	}
}

// TestAsyncStoreContextBoundsWrite: a context that expires mid-payload
// closes the session under the write, so the store fails with the
// context's error at once instead of after the whole payload crawls
// over a real-time-paced link; and the storing depot, which sees a
// clean close, holds none of the prefix that reached it.
func TestAsyncStoreContextBoundsWrite(t *testing.T) {
	sys, err := NewSystem(topo.TwoPath(), Config{TimeScale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sys.StoreAtContext(ctx, topo.UCSB, topo.Denver, 64<<20)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("store returned after %v: the write ignored the context", took)
	}
	di, _ := sys.Topo.HostIndex(topo.Denver)
	if !sys.depots[di].Shutdown(10 * time.Second) {
		t.Fatal("the storing depot never saw the store end")
	}
	if st := sys.depots[di].Stats(); st.Stored != 0 || st.BytesStored != 0 {
		t.Fatalf("a store cut short is held: %d sessions of %d bytes", st.Stored, st.BytesStored)
	}
}
