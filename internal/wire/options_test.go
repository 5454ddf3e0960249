package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSourceRouteRoundTrip(t *testing.T) {
	hops := []Endpoint{
		MustEndpoint("10.0.0.1:1"),
		MustEndpoint("10.0.0.2:2"),
		MustEndpoint("10.0.0.3:3"),
	}
	got, err := ParseSourceRoute(SourceRouteOption(hops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("hops = %v", got)
	}
	for i := range hops {
		if got[i] != hops[i] {
			t.Fatalf("hop %d = %v, want %v", i, got[i], hops[i])
		}
	}
}

func TestSourceRouteEmpty(t *testing.T) {
	got, err := ParseSourceRoute(SourceRouteOption(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty route: %v, %v", got, err)
	}
}

func TestSourceRouteErrors(t *testing.T) {
	if _, err := ParseSourceRoute(Option{Kind: OptGenerate}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := ParseSourceRoute(Option{Kind: OptSourceRoute, Data: []byte{1, 2, 3}}); err == nil {
		t.Fatal("odd length accepted")
	}
}

func TestSourceRouteProperty(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) / 6
		hops := make([]Endpoint, n)
		for i := range hops {
			copy(hops[i].IP[:], raw[i*6:])
			hops[i].Port = uint16(raw[i*6+4])<<8 | uint16(raw[i*6+5])
		}
		got, err := ParseSourceRoute(SourceRouteOption(hops))
		if err != nil || len(got) != n {
			return false
		}
		for i := range hops {
			if got[i] != hops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerate(t *testing.T) {
	got, err := ParseGenerate(GenerateOption(1 << 40))
	if err != nil || got != 1<<40 {
		t.Fatalf("generate = %v, %v", got, err)
	}
	if _, err := ParseGenerate(Option{Kind: OptGenerate, Data: []byte{1, 2}}); err == nil {
		t.Fatal("short generate accepted")
	}
}

func sampleTree() *TreeNode {
	return &TreeNode{
		Addr: MustEndpoint("10.0.0.1:1"),
		Children: []*TreeNode{
			{
				Addr: MustEndpoint("10.0.0.2:2"),
				Children: []*TreeNode{
					{Addr: MustEndpoint("10.0.0.3:3")},
					{Addr: MustEndpoint("10.0.0.4:4")},
				},
			},
			{Addr: MustEndpoint("10.0.0.5:5")},
		},
	}
}

func TestMulticastTreeRoundTrip(t *testing.T) {
	tree := sampleTree()
	opt, err := MulticastTreeOption(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMulticastTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 5 {
		t.Fatalf("size = %d", got.Size())
	}
	if got.Addr != tree.Addr {
		t.Fatal("root mismatch")
	}
	if len(got.Children) != 2 || len(got.Children[0].Children) != 2 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	leaves := got.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	want := []Endpoint{
		MustEndpoint("10.0.0.3:3"),
		MustEndpoint("10.0.0.4:4"),
		MustEndpoint("10.0.0.5:5"),
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("leaf %d = %v, want %v", i, leaves[i], want[i])
		}
	}
}

func TestMulticastTreeSingleNode(t *testing.T) {
	root := &TreeNode{Addr: MustEndpoint("1.1.1.1:1")}
	opt, err := MulticastTreeOption(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMulticastTree(opt)
	if err != nil || got.Size() != 1 {
		t.Fatalf("single-node tree: %v, %v", got, err)
	}
	if ls := got.Leaves(); len(ls) != 1 || ls[0] != root.Addr {
		t.Fatalf("leaves = %v", ls)
	}
}

func TestMulticastTreeErrors(t *testing.T) {
	if _, err := MulticastTreeOption(nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := ParseMulticastTree(Option{Kind: OptSourceRoute}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := ParseMulticastTree(Option{Kind: OptMulticastTree, Data: []byte{1, 2}}); err == nil {
		t.Fatal("bad length accepted")
	}
	// Root must start at depth 0.
	bad := Option{Kind: OptMulticastTree, Data: []byte{1, 10, 0, 0, 1, 0, 1}}
	if _, err := ParseMulticastTree(bad); err == nil {
		t.Fatal("root at depth 1 accepted")
	}
	// Depth jump of 2.
	opt, _ := MulticastTreeOption(sampleTree())
	data := append([]byte(nil), opt.Data...)
	data[7] = 3 // second entry jumps from depth 0 to 3
	if _, err := ParseMulticastTree(Option{Kind: OptMulticastTree, Data: data}); err == nil {
		t.Fatal("depth jump accepted")
	}
}

func TestMulticastDeepChain(t *testing.T) {
	// A 50-deep chain round-trips.
	root := &TreeNode{Addr: MustEndpoint("10.0.0.1:1")}
	cur := root
	for i := 2; i <= 50; i++ {
		child := &TreeNode{Addr: Endpoint{IP: [4]byte{10, 0, byte(i), 1}, Port: 1}}
		cur.Children = []*TreeNode{child}
		cur = child
	}
	opt, err := MulticastTreeOption(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMulticastTree(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 50 {
		t.Fatalf("size = %d", got.Size())
	}
	if len(got.Leaves()) != 1 {
		t.Fatalf("leaves = %d", len(got.Leaves()))
	}
}

func TestStripeOptionsRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		count uint16
		index uint16
	}{
		{"two-stripes-first", 2, 0},
		{"two-stripes-second", 2, 1},
		{"mid-fan", 8, 3},
		{"max-count", ^uint16(0), 1234},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, err := ParseStripeCount(StripeCountOption(tc.count))
			if err != nil || count != tc.count {
				t.Fatalf("count = %d, %v; want %d", count, err, tc.count)
			}
			index, err := ParseStripeIndex(StripeIndexOption(tc.index))
			if err != nil || index != tc.index {
				t.Fatalf("index = %d, %v; want %d", index, err, tc.index)
			}
		})
	}
}

func TestStripeOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		via  string // which parser
	}{
		{"count-wrong-kind", Option{Kind: OptStripeIndex, Data: []byte{0, 2}}, "count"},
		{"count-short", Option{Kind: OptStripeCount, Data: []byte{2}}, "count"},
		{"count-long", Option{Kind: OptStripeCount, Data: []byte{0, 0, 2}}, "count"},
		{"count-zero", Option{Kind: OptStripeCount, Data: []byte{0, 0}}, "count"},
		{"index-wrong-kind", Option{Kind: OptStripeCount, Data: []byte{0, 1}}, "index"},
		{"index-short", Option{Kind: OptStripeIndex, Data: []byte{1}}, "index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.via == "count" {
				_, err = ParseStripeCount(tc.opt)
			} else {
				_, err = ParseStripeIndex(tc.opt)
			}
			if err == nil {
				t.Fatalf("%s parser accepted %v", tc.via, tc.opt)
			}
		})
	}
}

func TestHeaderStripeHelpers(t *testing.T) {
	h := &Header{Version: Version1, Type: TypeData}
	if h.StripeCount() != 1 || h.StripeIndex() != 0 {
		t.Fatalf("fresh header: count=%d index=%d", h.StripeCount(), h.StripeIndex())
	}
	h.AddOption(StripeCountOption(4))
	h.AddOption(StripeIndexOption(2))
	if h.StripeCount() != 4 || h.StripeIndex() != 2 {
		t.Fatalf("striped header: count=%d index=%d", h.StripeCount(), h.StripeIndex())
	}
	// Malformed options degrade to the unstriped defaults rather than
	// poisoning the forwarding path.
	bad := &Header{Version: Version1, Type: TypeData}
	bad.AddOption(Option{Kind: OptStripeCount, Data: []byte{9}})
	bad.AddOption(Option{Kind: OptStripeIndex, Data: []byte{9}})
	if bad.StripeCount() != 1 || bad.StripeIndex() != 0 {
		t.Fatalf("malformed header: count=%d index=%d", bad.StripeCount(), bad.StripeIndex())
	}
}

func TestStripeOptionsSurviveHeaderRoundTrip(t *testing.T) {
	id, err := NewSessionID()
	if err != nil {
		t.Fatal(err)
	}
	h := &Header{
		Version: Version1,
		Type:    TypeData,
		Session: id,
		Src:     MustEndpoint("10.0.0.1:7411"),
		Dst:     MustEndpoint("10.0.0.2:7411"),
	}
	h.AddOption(StripeCountOption(3))
	h.AddOption(StripeIndexOption(1))
	h.AddOption(ResumeOffsetOption(1 << 20))
	var buf bytes.Buffer
	if err := WriteHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.StripeCount() != 3 || got.StripeIndex() != 1 || got.ResumeOffset() != 1<<20 {
		t.Fatalf("after round trip: count=%d index=%d offset=%d",
			got.StripeCount(), got.StripeIndex(), got.ResumeOffset())
	}
}

func TestResumeOffsetOption(t *testing.T) {
	opt := ResumeOffsetOption(1 << 33)
	off, err := ParseResumeOffset(opt)
	if err != nil || off != 1<<33 {
		t.Fatalf("off=%d err=%v", off, err)
	}
	h := &Header{Version: Version1, Type: TypeData}
	if h.ResumeOffset() != 0 {
		t.Fatal("fresh header should resume at 0")
	}
	h.AddOption(opt)
	if h.ResumeOffset() != 1<<33 {
		t.Fatalf("ResumeOffset = %d", h.ResumeOffset())
	}
	if _, err := ParseResumeOffset(Option{Kind: OptResumeOffset, Data: []byte{1}}); err == nil {
		t.Fatal("short resume offset accepted")
	}
}
