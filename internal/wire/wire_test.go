package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func sampleHeader() *Header {
	return &Header{
		Version: Version1,
		Type:    TypeData,
		Session: SessionID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Src:     MustEndpoint("10.0.0.1:7411"),
		Dst:     MustEndpoint("10.0.1.2:7411"),
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	h.AddOption(SourceRouteOption([]Endpoint{
		MustEndpoint("10.0.0.9:7411"),
		MustEndpoint("10.0.0.10:7411"),
	}))
	h.AddOption(Option{Kind: 2, Data: []byte{2, 0, 0, 0}}) // a reserved kind rides along

	buf, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if got.Version != h.Version || got.Type != h.Type || got.Session != h.Session {
		t.Fatalf("fixed fields mismatch: %+v", got)
	}
	if got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("endpoints mismatch: %+v", got)
	}
	if len(got.Options) != 2 {
		t.Fatalf("options = %d", len(got.Options))
	}
	hops, err := ParseSourceRoute(got.Options[0])
	if err != nil || len(hops) != 2 || hops[1] != MustEndpoint("10.0.0.10:7411") {
		t.Fatalf("source route = %v, %v", hops, err)
	}
	if o := got.Options[1]; o.Kind != 2 || !bytes.Equal(o.Data, []byte{2, 0, 0, 0}) {
		t.Fatalf("reserved option = %+v", o)
	}
}

func TestHeaderStreamRoundTrip(t *testing.T) {
	h := sampleHeader()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload follows the header")
	buf.Write(payload)

	got, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != h.Session {
		t.Fatal("session id mismatch")
	}
	rest, _ := io.ReadAll(&buf)
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload corrupted: %q", rest)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(sess [16]byte, srcIP, dstIP [4]byte, srcPort, dstPort uint16, typ uint16, optData []byte) bool {
		if len(optData) > 1024 {
			optData = optData[:1024]
		}
		h := &Header{
			Version: Version1,
			Type:    typ,
			Session: SessionID(sess),
			Src:     Endpoint{IP: srcIP, Port: srcPort},
			Dst:     Endpoint{IP: dstIP, Port: dstPort},
		}
		h.AddOption(Option{Kind: 42, Data: optData})
		buf, err := h.MarshalBinary()
		if err != nil {
			return false
		}
		var got Header
		if err := got.UnmarshalBinary(buf); err != nil {
			return false
		}
		return got.Session == h.Session &&
			got.Src == h.Src && got.Dst == h.Dst &&
			got.Type == typ &&
			len(got.Options) == 1 &&
			got.Options[0].Kind == 42 &&
			bytes.Equal(got.Options[0].Data, optData)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var h Header
	if err := h.UnmarshalBinary(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer: %v", err)
	}
	good, _ := sampleHeader().MarshalBinary()

	bad := append([]byte(nil), good...)
	bad[0], bad[1] = 0xFF, 0xFF // version
	if err := h.UnmarshalBinary(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4], bad[5] = 0xFF, 0xFF // header length beyond buffer
	if err := h.UnmarshalBinary(bad); !errors.Is(err, ErrBadMagicLen) {
		t.Fatalf("bad length: %v", err)
	}

	// Option overrunning the header bounds.
	withOpt := sampleHeader()
	withOpt.AddOption(Option{Kind: 1, Data: []byte{1, 2, 3, 4}})
	buf, _ := withOpt.MarshalBinary()
	buf[len(buf)-6] = 0xFF // option length field sabotage
	buf[len(buf)-5] = 0xFF
	if err := h.UnmarshalBinary(buf); !errors.Is(err, ErrOptionBounds) {
		t.Fatalf("option overrun: %v", err)
	}
}

func TestReadHeaderErrors(t *testing.T) {
	// Truncated stream.
	if _, err := ReadHeader(bytes.NewReader([]byte{0, 1})); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Bad version on the wire.
	buf, _ := sampleHeader().MarshalBinary()
	buf[0], buf[1] = 9, 9
	if _, err := ReadHeader(bytes.NewReader(buf)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	// Options cut off mid-stream.
	h := sampleHeader()
	h.AddOption(Option{Kind: 7, Data: make([]byte, 100)})
	full, _ := h.MarshalBinary()
	if _, err := ReadHeader(bytes.NewReader(full[:50])); err == nil {
		t.Fatal("cut-off options accepted")
	}
}

func TestMaxHeaderLen(t *testing.T) {
	h := sampleHeader()
	h.AddOption(Option{Kind: 1, Data: make([]byte, MaxHeaderLen)})
	if _, err := h.MarshalBinary(); err == nil {
		t.Fatal("oversized header accepted")
	}
}

func TestParseEndpoint(t *testing.T) {
	e, err := ParseEndpoint("192.168.1.10:8080")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "192.168.1.10:8080" {
		t.Fatalf("round trip = %q", e.String())
	}
	bad := []string{
		"192.168.1.10",      // no port
		"hostname:80",       // not an IP
		"[::1]:80",          // IPv6
		"10.0.0.1:notaport", // bad port
		"10.0.0.1:70000",    // port overflow
	}
	for _, s := range bad {
		if _, err := ParseEndpoint(s); err == nil {
			t.Errorf("ParseEndpoint(%q) accepted", s)
		}
	}
}

func TestMustEndpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEndpoint should panic")
		}
	}()
	MustEndpoint("nope")
}

func TestEndpointIsZero(t *testing.T) {
	if !(Endpoint{}).IsZero() {
		t.Fatal("zero endpoint not detected")
	}
	if MustEndpoint("1.2.3.4:5").IsZero() {
		t.Fatal("non-zero endpoint reported zero")
	}
}

func TestNewSessionIDUnique(t *testing.T) {
	a, err := NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two session ids collided")
	}
	if len(a.String()) != 32 {
		t.Fatalf("hex id length = %d", len(a.String()))
	}
}

func TestHeaderOptionLookup(t *testing.T) {
	h := sampleHeader()
	h.AddOption(Option{Kind: 5, Data: []byte{1}})
	h.AddOption(Option{Kind: 5, Data: []byte{2}})
	got, ok := h.Option(5)
	if !ok || got.Data[0] != 2 {
		t.Fatalf("Option lookup = %+v, %v (want last match)", got, ok)
	}
	if _, ok := h.Option(99); ok {
		t.Fatal("missing option found")
	}
}

func TestUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	// Random byte soup must produce errors, never panics.
	f := func(data []byte) bool {
		var h Header
		_ = h.UnmarshalBinary(data) // error or nil, either is fine
		_, _ = ReadHeader(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionParsersNeverPanic(t *testing.T) {
	f := func(kind uint16, data []byte) bool {
		o := Option{Kind: kind, Data: data}
		_, _ = ParseSourceRoute(o)
		_, _ = ParseGenerate(o)
		_, _ = ParseMulticastTree(o)
		_, _ = ParseFetchID(o)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFetchIDOptionRoundTrip(t *testing.T) {
	id := SessionID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	got, err := ParseFetchID(FetchIDOption(id))
	if err != nil || got != id {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := ParseFetchID(Option{Kind: OptFetchID, Data: []byte{1}}); err == nil {
		t.Fatal("short fetch id accepted")
	}
}
