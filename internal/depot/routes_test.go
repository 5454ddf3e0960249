package depot

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// pushTable opens a TypeControl session to target carrying the table at
// the given epoch and returns the ack header the depot answers with.
func pushTable(t *testing.T, h *harness, fromHost string, target wire.Endpoint, epoch uint64, entries []wire.RouteEntry) *wire.Header {
	t.Helper()
	conn, err := h.net.Dial(fromHost, target.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	opts, err := wire.RouteTableOptions(entries)
	if err != nil {
		t.Fatal(err)
	}
	id, err := wire.NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	hd := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeControl,
		Session: id,
		Src:     wire.MustEndpoint(fromHost + ":7500"),
		Dst:     target,
		Options: append(opts, wire.TableEpochOption(epoch)),
	}
	if err := wire.WriteHeader(conn, hd); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := wire.ReadHeader(conn)
	if err != nil {
		t.Fatalf("reading control ack: %v", err)
	}
	return ack
}

func TestControlPushInstallsTable(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{AcceptControl: true})
	ack := pushTable(t, h, "10.0.0.9", epB, 1, []wire.RouteEntry{{Dst: epC, Next: epC}})
	if ack.Type != wire.TypeControl || ack.TableEpoch() != 1 {
		t.Fatalf("ack type %d epoch %d, want control epoch 1", ack.Type, ack.TableEpoch())
	}
	if srv.RouteEpoch() != 1 || srv.RouteCount() != 1 {
		t.Fatalf("epoch %d count %d, want 1/1", srv.RouteEpoch(), srv.RouteCount())
	}
	if st := srv.Stats(); st.TablePushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestControlStalePushIgnored(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{AcceptControl: true})
	pushTable(t, h, "10.0.0.9", epB, 5, []wire.RouteEntry{{Dst: epC, Next: epC}})
	ack := pushTable(t, h, "10.0.0.9", epB, 3, []wire.RouteEntry{{Dst: epC, Next: epD}})
	if ack.TableEpoch() != 5 {
		t.Fatalf("ack epoch %d, want installed epoch 5", ack.TableEpoch())
	}
	if srv.RouteEpoch() != 5 {
		t.Fatalf("stale push replaced table: epoch %d", srv.RouteEpoch())
	}
	if st := srv.Stats(); st.StalePushes != 1 || st.TablePushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestControlRefusedWhenNotAccepting(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{}) // AcceptControl defaults to false
	ack := pushTable(t, h, "10.0.0.9", epB, 1, nil)
	if ack.Type != wire.TypeRefuse {
		t.Fatalf("ack type %d, want refuse", ack.Type)
	}
	if st := srv.Stats(); st.Refused != 1 || srv.RouteEpoch() != 0 {
		t.Fatalf("stats = %+v epoch %d", st, srv.RouteEpoch())
	}
}

func TestControlMalformedPushKeepsTable(t *testing.T) {
	h := newHarness(t)
	srv := h.addDepot(epB, Config{AcceptControl: true})
	pushTable(t, h, "10.0.0.9", epB, 1, []wire.RouteEntry{{Dst: epC, Next: epC}})

	// A newer epoch whose table bytes are damaged must not disturb the
	// installed table: reject whole, keep forwarding by epoch 1.
	conn, err := h.net.Dial("10.0.0.9", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	id, _ := wire.NewSessionID()
	hd := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeControl,
		Session: id,
		Src:     wire.MustEndpoint("10.0.0.9:7500"),
		Dst:     epB,
		Options: []wire.Option{
			{Kind: wire.OptRouteTable, Data: []byte{1, 2, 3}},
			wire.TableEpochOption(9),
		},
	}
	if err := wire.WriteHeader(conn, hd); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.TableEpoch() != 1 || srv.RouteEpoch() != 1 {
		t.Fatalf("malformed push disturbed table: ack %d installed %d", ack.TableEpoch(), srv.RouteEpoch())
	}

	// Missing epoch likewise counts as stale, installs nothing.
	ack2 := pushTable(t, h, "10.0.0.9", epB, 0, nil)
	if srv.RouteEpoch() != 1 || ack2.TableEpoch() != 1 {
		t.Fatalf("epoch-0 push disturbed table: installed %d", srv.RouteEpoch())
	}
}

func TestTableDrivenForwarding(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	relay := h.addDepot(epB, Config{AcceptControl: true, TableDriven: true, Metrics: reg})
	h.addDepot(epC, Config{})
	pushTable(t, h, "10.0.0.9", epB, 1, []wire.RouteEntry{{Dst: epC, Next: epC}})

	// No source route: the relay must forward A→C purely by its table.
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Src: epA, Dst: epC, Entry: epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("table-driven! "), 2048)
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	st := relay.Stats()
	if st.Forwarded != 1 || st.TableHits != 1 || st.TableMisses != 0 {
		t.Fatalf("relay stats = %+v", st)
	}
	if v := reg.Gauge(MetricTableEpoch).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricTableEpoch, v)
	}
	perDst := fmt.Sprintf("%s{dst=%q}", MetricTableHits, epC.String())
	if v := reg.Counter(perDst).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", perDst, v)
	}
}

func TestTableDrivenMissRefused(t *testing.T) {
	h := newHarness(t)
	relay := h.addDepot(epB, Config{AcceptControl: true, TableDriven: true})

	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Src: epA, Dst: epC, Entry: epB})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := wire.ReadHeader(sess)
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if ack.Type != wire.TypeRefuse {
		t.Fatalf("ack type %d, want refuse", ack.Type)
	}
	st := relay.Stats()
	if st.Refused != 1 || st.TableMisses != 1 {
		t.Fatalf("relay stats = %+v", st)
	}
}

func TestHopLimitRefused(t *testing.T) {
	h := newHarness(t)
	relay := h.addDepot(epB, Config{MaxHops: 2})

	// Forge a session that claims to have already traversed 2 depots.
	conn, err := h.net.Dial("10.0.0.1", epB.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	id, _ := wire.NewSessionID()
	hd := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeData,
		Session: id,
		Src:     epA,
		Dst:     epC,
		Options: []wire.Option{
			wire.SourceRouteOption([]wire.Endpoint{epC}),
			wire.HopIndexOption(2),
		},
	}
	if err := wire.WriteHeader(conn, hd); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := wire.ReadHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.TypeRefuse {
		t.Fatalf("ack type %d, want refuse", ack.Type)
	}
	st := relay.Stats()
	if st.HopLimited != 1 || st.Refused != 1 {
		t.Fatalf("relay stats = %+v", st)
	}
}

func TestHopLimitAllowsShortChains(t *testing.T) {
	h := newHarness(t)
	h.addDepot(epB, Config{MaxHops: 2})
	h.addDepot(epC, Config{MaxHops: 2})
	sess, err := lsl.Open(h.dialerFrom("10.0.0.1"), epA, epC, []wire.Endpoint{epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("two hops is fine")
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
}

func TestLegacyDepotIgnoresTableMode(t *testing.T) {
	// A depot with neither TableDriven nor an installed table keeps the
	// seed behaviour: unrouted sessions fall back to a direct dial and
	// no table metrics move.
	h := newHarness(t)
	relay := h.addDepot(epB, Config{})
	h.addDepot(epC, Config{})
	sess, err := lsl.Start(h.dialerFrom("10.0.0.1"), lsl.Spec{Src: epA, Dst: epC, Entry: epB})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("direct fallback")
	go func() {
		sess.Write(payload)
		sess.Close()
	}()
	if got := h.waitDelivery(sess.ID()); !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	st := relay.Stats()
	if st.TableHits != 0 || st.TableMisses != 0 {
		t.Fatalf("legacy depot touched table metrics: %+v", st)
	}
}
