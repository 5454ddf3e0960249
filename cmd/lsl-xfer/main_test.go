package main

import (
	"strings"
	"testing"

	"github.com/netlogistics/lsl/internal/stats"
)

// TestParseSize holds the -size specs lsl-xfer takes through the shared
// parser: suffixes in either case and surrounding space are read, a
// bare suffix, a sign, zero or an unknown suffix is rejected.
func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"1024", 1024},
		{"64K", 64 << 10},
		{"16M", 16 << 20},
		{"2G", 2 << 30},
		{" 8m ", 8 << 20},
	}
	for _, c := range cases {
		got, err := stats.ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "M", "-4M", "0", "12Q"} {
		if _, err := stats.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

// TestExclusiveModes drives the central send-mode validation: every
// mode flag alone is fine, any pair is rejected, and the off values
// (stripes 1, multipath 0) select no mode at all.
func TestExclusiveModes(t *testing.T) {
	cases := []struct {
		name                           string
		cached, table, store, generate bool
		stripes, multipath             int
		want                           []string
	}{
		{name: "plain send", stripes: 1},
		{name: "cached alone", cached: true, stripes: 1, want: []string{"-cached"}},
		{name: "table-driven alone", table: true, stripes: 1, want: []string{"-table-driven"}},
		{name: "store alone", store: true, stripes: 1, want: []string{"-store"}},
		{name: "generate alone", generate: true, stripes: 1, want: []string{"-generate"}},
		{name: "stripes alone", stripes: 4, want: []string{"-stripes"}},
		{name: "multipath alone", stripes: 1, multipath: 2, want: []string{"-multipath"}},
		{name: "single-route multipath still a mode", stripes: 1, multipath: 1, want: []string{"-multipath"}},
		{name: "cached+stripes", cached: true, stripes: 2, want: []string{"-cached", "-stripes"}},
		{name: "cached+multipath", cached: true, stripes: 1, multipath: 2, want: []string{"-cached", "-multipath"}},
		{name: "stripes+multipath", stripes: 4, multipath: 2, want: []string{"-stripes", "-multipath"}},
		{name: "store+generate", store: true, generate: true, stripes: 1, want: []string{"-store", "-generate"}},
		{name: "table+multipath", table: true, stripes: 1, multipath: 3, want: []string{"-table-driven", "-multipath"}},
		{name: "three modes", cached: true, stripes: 8, multipath: 2, want: []string{"-cached", "-stripes", "-multipath"}},
	}
	for _, c := range cases {
		got := exclusiveModes(c.cached, c.table, c.store, c.generate, c.stripes, c.multipath)
		if len(got) != len(c.want) {
			t.Errorf("%s: modes = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: modes = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestParseMultipathRoutes covers the ';'-separated route grammar,
// including the empty group (the direct path) and malformed endpoints.
func TestParseMultipathRoutes(t *testing.T) {
	routes, err := parseMultipathRoutes("10.0.0.1:7411,10.0.0.2:7411;10.0.0.3:7411")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 || len(routes[0]) != 2 || len(routes[1]) != 1 {
		t.Fatalf("routes = %v, want a 2-hop and a 1-hop route", routes)
	}
	if routes[0][1].String() != "10.0.0.2:7411" || routes[1][0].String() != "10.0.0.3:7411" {
		t.Fatalf("routes = %v", routes)
	}

	// An empty group is a direct route; whitespace is tolerated.
	routes, err = parseMultipathRoutes(" 10.0.0.1:7411 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 || len(routes[0]) != 1 || len(routes[1]) != 0 {
		t.Fatalf("routes = %v, want one depot route and one direct route", routes)
	}

	if _, err := parseMultipathRoutes("not-an-endpoint;10.0.0.1:7411"); err == nil {
		t.Fatal("malformed endpoint accepted")
	}
}

// TestExclusiveModesMessage pins the shape of the usage error body so
// the rejection names every offending flag.
func TestExclusiveModesMessage(t *testing.T) {
	modes := exclusiveModes(true, false, false, false, 4, 2)
	msg := strings.Join(modes, " and ")
	for _, want := range []string{"-cached", "-stripes", "-multipath"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %s", msg, want)
		}
	}
}

// TestOverWireLimit pins the 16-bit count check that runs before any
// stripe or path option is built: 65 535 fits, one more is named, and
// the off values select nothing.
func TestOverWireLimit(t *testing.T) {
	cases := []struct {
		stripes, multipath int
		want               string
	}{
		{stripes: 1, want: ""},
		{stripes: 65535, multipath: 65535, want: ""},
		{stripes: 65536, want: "-stripes"},
		{stripes: 70000, want: "-stripes"},
		{stripes: 1, multipath: 70000, want: "-multipath"},
	}
	for _, c := range cases {
		if got := overWireLimit(c.stripes, c.multipath); got != c.want {
			t.Errorf("overWireLimit(%d, %d) = %q, want %q", c.stripes, c.multipath, got, c.want)
		}
	}
}
