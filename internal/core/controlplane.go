package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/netlogistics/lsl/internal/ctl"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// controlAddr is the in-process controller's endpoint: a host of its
// own on the emulated network, outside the 10.0–10.1 depot address
// plan, so control traffic rides the (unshaped) default link and never
// competes with the data path it measures.
var controlAddr = wire.MustEndpoint("10.254.0.1:7500")

// startControl builds the in-process controller of a ControlPlane
// system, registers every host, and runs the first round so depots hold
// epoch-1 tables before any transfer is attempted.
func (s *System) startControl() error {
	// Probes read the topology's modelled bandwidth through a dedicated
	// rng stream, so control-plane measurement noise is deterministic
	// and independent of the data path's randomness.
	probeRNG := rand.New(rand.NewSource(s.cfg.Seed + 1))
	c, err := ctl.New(ctl.Config{
		Planner: s.Planner,
		Self:    controlAddr,
		Dial: lsl.DialerFunc(func(address string) (net.Conn, error) {
			return s.Net.Dial("10.254.0.1", address)
		}),
		Probe: func(src, dst string) (float64, error) {
			si, oks := s.Topo.HostIndex(src)
			di, okd := s.Topo.HostIndex(dst)
			if !oks || !okd {
				return 0, fmt.Errorf("core: unknown probe pair %s -> %s", src, dst)
			}
			return s.Topo.MeasuredBW(si, di, probeRNG), nil
		},
		PushTimeout: 10 * time.Second,
		Metrics:     s.cfg.Metrics,
		Trace:       s.cfg.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: controller: %w", err)
	}
	// Every host registers with push enabled: non-depot hosts cannot
	// relay (the planner gives them infinite transit), but their own
	// server still forwards the first hop of locally originated
	// sessions, so they need their tree's table too.
	for i := 0; i < s.Topo.N(); i++ {
		if err := c.Register(s.Topo.Hosts[i].Name, s.endpoints[i], true); err != nil {
			return fmt.Errorf("core: controller: %w", err)
		}
	}
	s.control = c
	if _, err := c.Round(s.ctx); err != nil {
		return fmt.Errorf("core: initial control round: %w", err)
	}
	return nil
}

// Control returns the in-process controller of a ControlPlane system
// (nil otherwise).
func (s *System) Control() *ctl.Controller { return s.control }

// ControlRound advances the control plane one probe → replan → push
// cycle — the deterministic stand-in for the daemon's timer loop.
func (s *System) ControlRound() (ctl.RoundReport, error) {
	if s.control == nil {
		return ctl.RoundReport{}, fmt.Errorf("core: system has no control plane (Config.ControlPlane)")
	}
	ctx, cancel := context.WithTimeout(s.ctx, transferTimeout)
	defer cancel()
	return s.control.Round(ctx)
}

// TransferTableDriven moves size bytes with routing owned entirely by
// the control plane: the initiator dials its own host's depot with no
// source route, and every hop — including the first — is a route-table
// lookup against controller-pushed state. The result's Path is the
// planner's current expectation; the trace (Config.Trace) records the
// hops the session actually took.
func (s *System) TransferTableDriven(srcHost, dstHost string, size int64) (TransferResult, error) {
	if s.control == nil {
		return TransferResult{}, fmt.Errorf("core: system has no control plane (Config.ControlPlane)")
	}
	// The planned path is only the expectation the result reports:
	// routing belongs to the depots' pushed tables.
	path, err := s.routeOrDirect(srcHost, dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	return s.single(path, Route{Entry: s.endpoints[path[0]]}, size)
}
