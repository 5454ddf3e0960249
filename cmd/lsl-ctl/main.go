// Command lsl-ctl runs the control plane for a mesh of lsl-depot
// processes: it probes every link between the rostered hosts with
// generate sessions, feeds the measurements into NWS forecasters, and
// pushes epoch-stamped route tables to each depot whenever the ε-damped
// minimax plan actually changes.
//
// Usage:
//
//	lsl-ctl -roster roster.txt -self 198.51.100.1:7500 \
//	        [-interval 5m] [-epsilon 0.10] [-probe-bytes 256K] \
//	        [-push-timeout 10s] [-refresh-every 12] [-once] \
//	        [-debug-addr 127.0.0.1:7502]
//
// The roster file has one mesh member per line:
//
//	<name> <ip:port> [depot|nopush]
//
// A plain entry is an endpoint host: it is probed, it receives table
// pushes (its own depot forwards the first hop of locally originated
// sessions), but the planner never relays third-party traffic through
// it. "depot" marks a host the planner may use as a relay. "nopush"
// marks a host that is probed only — useful while its depot is still
// being deployed without -ctl.
//
// Depots in the mesh must run with -ctl (to accept pushes) and usually
// -table-driven (to make the pushed table authoritative). Senders use
// lsl-xfer -table-driven. Depots keep their last table if lsl-ctl dies
// — stale routing beats no routing — and -refresh-every bounds how
// stale a restarted depot can stay.
//
// With -once the controller runs a single probe→replan→push round and
// exits (cron-style operation); otherwise it loops at -interval until
// SIGINT/SIGTERM. With -debug-addr it serves GET /metrics with the
// controller's counters and the current table epoch; adding -collect
// turns the same listener into the mesh's trace collector: depots
// started with -trace-push POST their hop events to
// http://<debug-addr>/traces/ingest, and GET /traces (or
// /traces/{trace-id}) returns the assembled per-transfer timelines
// that lsl-trace renders.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/ctl"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/schedule"
	"github.com/netlogistics/lsl/internal/stats"
	"github.com/netlogistics/lsl/internal/topo"
	"github.com/netlogistics/lsl/internal/wire"
)

var (
	rosterPath   = flag.String("roster", "", "mesh roster file: '<name> <ip:port> [depot|nopush]' per line (required)")
	selfAddr     = flag.String("self", "", "controller's own ip:port, stamped on control sessions (required)")
	interval     = flag.Duration("interval", ctl.DefaultInterval, "probe-and-replan cadence")
	epsilon      = flag.Float64("epsilon", -1, "route-damping ε: alternatives within this fraction are equivalent (negative = default 0.10, 0 = off)")
	probeSpec    = flag.String("probe-bytes", "256K", "bytes per link probe (suffixes K, M, G)")
	pushTimeout  = flag.Duration("push-timeout", ctl.DefaultPushTimeout, "bound on one table push (dial, write, ack)")
	dialTimeout  = flag.Duration("dial-timeout", 10*time.Second, "TCP connect timeout for probes and pushes")
	refreshEvery = flag.Int("refresh-every", ctl.DefaultRefreshEvery, "re-push unchanged tables every this many rounds (negative = never)")
	once         = flag.Bool("once", false, "run a single round and exit")
	debugAddr    = flag.String("debug-addr", "", "serve /metrics on this ip:port (empty = off)")
	collect      = flag.Bool("collect", false, "also run the mesh trace collector on -debug-addr (/traces, /traces/ingest)")
	pprofOn      = flag.Bool("pprof", false, "mount /debug/pprof on the debug listener (needs -debug-addr)")
	verbose      = flag.Bool("v", false, "log per-round diagnostics")
)

func main() {
	flag.Parse()
	if *rosterPath == "" || *selfAddr == "" {
		fmt.Fprintln(os.Stderr, "lsl-ctl: -roster and -self are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		log.Fatalf("lsl-ctl: %v", err)
	}
}

// rosterEntry is one parsed roster line.
type rosterEntry struct {
	name  string
	addr  wire.Endpoint
	depot bool
	push  bool
}

func run() error {
	self, err := wire.ParseEndpoint(*selfAddr)
	if err != nil {
		return err
	}
	probeBytes, err := stats.ParseSize(*probeSpec)
	if err != nil {
		return err
	}
	roster, err := loadRoster(*rosterPath)
	if err != nil {
		return err
	}

	// Each roster host is its own performance-topology site: the daemon
	// knows nothing about co-location, so no pair may be skipped as
	// intra-site. Links stay unset — the first round's probes, not a
	// model, seed the forecasters.
	hosts := make([]topo.Host, len(roster))
	for i, r := range roster {
		hosts[i] = topo.Host{Name: r.name, Site: r.name, Depot: r.depot}
	}
	tp, err := topo.New("lsl-ctl", hosts)
	if err != nil {
		return err
	}
	planner, err := schedule.NewPlanner(tp, *epsilon)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	cfg := ctl.Config{
		Planner: planner,
		Self:    self,
		Dial: lsl.DialerFunc(func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, *dialTimeout)
		}),
		Interval:     *interval,
		ProbeBytes:   uint64(probeBytes),
		PushTimeout:  *pushTimeout,
		RefreshEvery: *refreshEvery,
		Metrics:      reg,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	c, err := ctl.New(cfg)
	if err != nil {
		return err
	}
	nDepots := 0
	for _, r := range roster {
		if err := c.Register(r.name, r.addr, r.push); err != nil {
			return err
		}
		if r.depot {
			nDepots++
		}
	}
	log.Printf("controller %s over %d hosts (%d relay depots), interval %v, ε %.3g",
		self, len(roster), nDepots, *interval, planner.Epsilon)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		hcfg := obs.HandlerConfig{Registry: reg, Pprof: *pprofOn}
		if *collect {
			col := obs.NewCollector(0).CountDrops(reg.Counter(obs.MetricTraceDrops))
			defer col.Close()
			hcfg.Collector = col
			log.Printf("trace collector on http://%s/traces (ingest at /traces/ingest)", dln.Addr())
		}
		log.Printf("debug endpoint on http://%s (/metrics)", dln.Addr())
		h := obs.NewHandler(hcfg)
		go func() {
			if herr := http.Serve(dln, h); herr != nil {
				log.Printf("debug endpoint: %v", herr)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %s, shutting down at epoch %d", sig, c.Epoch())
		cancel()
	}()

	if *once {
		rep, err := c.Round(ctx)
		if err != nil {
			return err
		}
		log.Print(roundLine(rep))
		return nil
	}
	err = c.Run(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// roundLine renders one round report as a log line.
func roundLine(rep ctl.RoundReport) string {
	return fmt.Sprintf("round: probes=%d probe-errors=%d epoch=%d changed=%d pushed=%d push-errors=%d",
		rep.Probes, rep.ProbeErrors, rep.Epoch, len(rep.Changed), rep.Pushed, rep.PushErrors)
}

// loadRoster parses the mesh roster file.
func loadRoster(path string) ([]rosterEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var roster []rosterEntry
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("%s:%d: want '<name> <ip:port> [depot|nopush]', got %q", path, lineNo, line)
		}
		e := rosterEntry{name: fields[0], push: true}
		if seen[e.name] {
			return nil, fmt.Errorf("%s:%d: duplicate host %q", path, lineNo, e.name)
		}
		seen[e.name] = true
		e.addr, err = wire.ParseEndpoint(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		if len(fields) == 3 {
			switch fields[2] {
			case "depot":
				e.depot = true
			case "nopush":
				e.push = false
			default:
				return nil, fmt.Errorf("%s:%d: unknown role %q (want depot or nopush)", path, lineNo, fields[2])
			}
		}
		roster = append(roster, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(roster) < 2 {
		return nil, fmt.Errorf("%s: roster has %d hosts, need >= 2", path, len(roster))
	}
	return roster, nil
}
