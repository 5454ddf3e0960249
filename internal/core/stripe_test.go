package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
)

func TestStripeRangesPartition(t *testing.T) {
	cases := []struct {
		size int64
		n    int
	}{
		{size: 10, n: 1},
		{size: 10, n: 3},
		{size: 1 << 20, n: 4},
		{size: 7, n: 7},
	}
	for _, tc := range cases {
		ranges := stripeRanges(tc.size, tc.n)
		if len(ranges) != tc.n {
			t.Fatalf("stripeRanges(%d, %d): %d ranges", tc.size, tc.n, len(ranges))
		}
		var off int64
		for k, r := range ranges {
			if r.start != off {
				t.Fatalf("stripe %d starts at %d, want %d (gap or overlap)", k, r.start, off)
			}
			if r.end <= r.start {
				t.Fatalf("stripe %d is empty: %+v", k, r)
			}
			off = r.end
		}
		if off != tc.size {
			t.Fatalf("ranges cover %d of %d bytes", off, tc.size)
		}
	}
}

// TestStripedTransferDelivers moves an object over four parallel
// sublink chains sharing one session id and asserts byte-exact
// reassembly plus per-stripe observability: every stripe must appear in
// the initiator's hop-0 trace and in the depots' hop events.
func TestStripedTransferDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := chainSystem(t, reg, nil)

	const size, stripes = 256 << 10, 4
	res, err := sys.TransferStriped("src", "dst", size, stripes, RecoveryPolicy{
		Retry: fastPolicy(4), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("result = %+v", res)
	}
	assertPath(t, res.Path, "src", "relay-a", "relay-b", "dst")

	hop0 := map[int]bool{}
	depotStriped := false
	for _, e := range mem.Events() {
		k, striped := e.StripeIndex()
		if e.Kind == obs.KindConnect && e.Hop == 0 && striped {
			hop0[k] = true
		}
		if e.Hop > 0 && striped && k > 0 {
			depotStriped = true
		}
	}
	for k := 0; k < stripes; k++ {
		if !hop0[k] {
			t.Fatalf("no hop-0 connect event for stripe %d (saw %v)", k, hop0)
		}
	}
	if !depotStriped {
		t.Fatal("depot events never carried a stripe index")
	}
	if v := reg.Counter(MetricStripedTransfers).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricStripedTransfers, v)
	}
	// A relay drops its stripe from the gauge when its session ends,
	// which is after it closed the downstream sublink — so a moment
	// after the sink, and this call, saw the stripe complete.
	eventually(t, depot.MetricActiveStripes+" back at 0", func() bool {
		return reg.Gauge(depot.MetricActiveStripes).Value() == 0
	})
}

// TestStripedKillOneStripeMidTransfer is the striping recovery
// acceptance test: a one-shot depot fault tears down exactly one
// stripe's transport mid-transfer. The killed stripe must retry and
// resume while its siblings stream on undisturbed — visible as exactly
// one stripe with more than one connect attempt — and the reassembled
// object must still be byte-exact.
func TestStripedKillOneStripeMidTransfer(t *testing.T) {
	reg := obs.NewRegistry()
	sys, mem := chainSystem(t, reg, nil)

	f, err := sys.Fault("relay-b")
	if err != nil {
		t.Fatal(err)
	}
	f.DropAfter(96 << 10)

	const size, stripes = 256 << 10, 4
	res, err := sys.TransferStriped("src", "dst", size, stripes, RecoveryPolicy{
		Retry: fastPolicy(5), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != size {
		t.Fatalf("bytes = %d, want %d", res.Bytes, size)
	}
	if f.Injected() != 1 {
		t.Fatalf("injected faults = %d, want exactly 1", f.Injected())
	}

	connects := map[int]int{}
	var sawStripeRetry bool
	for _, e := range mem.Events() {
		if e.Hop != 0 {
			continue
		}
		switch e.Kind {
		case obs.KindConnect:
			if k, ok := e.StripeIndex(); ok {
				connects[k]++
			}
		case obs.KindRetry:
			sawStripeRetry = true
		}
	}
	if !sawStripeRetry {
		t.Fatal("no hop-0 retry event for the killed stripe")
	}
	var retried int
	for k := 0; k < stripes; k++ {
		switch n := connects[k]; {
		case n < 1:
			t.Fatalf("stripe %d never connected: %v", k, connects)
		case n > 1:
			retried++
		}
	}
	if retried != 1 {
		t.Fatalf("%d stripes reconnected, want exactly 1 (siblings must not restart): %v", retried, connects)
	}
	if v := reg.Counter(MetricStripeRetries).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricStripeRetries, v)
	}
	if v := reg.Counter(MetricResumedBytes).Value(); v <= 0 {
		t.Fatalf("%s = %d, want > 0 (killed stripe restarted from scratch)", MetricResumedBytes, v)
	}
}

// TestStripedDegradesGracefully covers the edges: a stripe count larger
// than the object shrinks to one stripe per byte, and one stripe is
// exactly a reliable transfer.
func TestStripedDegradesGracefully(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := chainSystem(t, reg, nil)

	res, err := sys.TransferStriped("src", "dst", 3, 8, RecoveryPolicy{
		Retry: fastPolicy(3), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 3 {
		t.Fatalf("bytes = %d, want 3", res.Bytes)
	}

	res, err = sys.TransferStriped("src", "dst", 64<<10, 1, RecoveryPolicy{
		Retry: fastPolicy(3), AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 64<<10 {
		t.Fatalf("bytes = %d, want %d", res.Bytes, 64<<10)
	}

	if _, err := sys.TransferStriped("src", "dst", 0, 4, DefaultRecovery()); err == nil {
		t.Fatal("zero-size transfer accepted")
	}
	if _, err := sys.TransferStriped("src", "dst", 1<<10, 0, DefaultRecovery()); err == nil {
		t.Fatal("zero stripe count accepted")
	}
	// A count the 16-bit header field would wrap (70 000 → 4 464) is
	// refused before any stripe option is built.
	if _, err := sys.TransferStriped("src", "dst", 1<<20, 70000, DefaultRecovery()); !errors.Is(err, ErrTooManyStripes) {
		t.Fatalf("70000 stripes: err = %v, want ErrTooManyStripes", err)
	}
}

// TestStripedCorruptionIsFatal: silent corruption on one stripe must
// abort the whole striped transfer without burning the retry budget,
// exactly like the unstriped reliable path.
func TestStripedCorruptionIsFatal(t *testing.T) {
	reg := obs.NewRegistry()
	sys, _ := chainSystem(t, reg, nil)

	f, err := sys.Fault("relay-a")
	if err != nil {
		t.Fatal(err)
	}
	f.CorruptAfter(32 << 10)

	_, err = sys.TransferStriped("src", "dst", 128<<10, 4, RecoveryPolicy{
		Retry: fastPolicy(4), AttemptTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("corrupted striped transfer reported success")
	}
	if errors.Is(err, retry.ErrExhausted) {
		t.Fatalf("err = %v: corruption burned the retry budget instead of aborting", err)
	}
	if !strings.Contains(err.Error(), "pattern mismatch") {
		t.Fatalf("err = %v, want the sink's pattern mismatch", err)
	}
	if v := reg.Counter(MetricRecoveryFatal).Value(); v < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricRecoveryFatal, v)
	}
}
