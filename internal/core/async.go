package core

import (
	"context"
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/wire"
)

// StoreResult reports an asynchronous staging operation.
type StoreResult struct {
	Session wire.SessionID
	Bytes   int64
	Elapsed time.Duration // emulated
	Path    []string
}

// StoreAt stages size bytes from srcHost into the depot on depotHost
// asynchronously: the payload travels the planner's route and is held
// at the depot under the returned session id until a receiver fetches
// it — the paper's asynchronous session mode, where sender and receiver
// need not exist at the same time. It is StoreAtContext under the
// system's context, bounded by the package transfer timeout.
func (s *System) StoreAt(srcHost, depotHost string, size int64) (StoreResult, error) {
	ctx, cancel := context.WithTimeout(s.ctx, transferTimeout)
	defer cancel()
	return s.StoreAtContext(ctx, srcHost, depotHost, size)
}

// StoreAtContext is StoreAt under the caller's context: a context
// already done stores nothing, and cancellation or deadline expiry
// aborts the payload write and the wait for the depot's confirmation
// that it holds the whole session.
func (s *System) StoreAtContext(ctx context.Context, srcHost, depotHost string, size int64) (StoreResult, error) {
	if size <= 0 {
		return StoreResult{}, fmt.Errorf("core: store size %d must be positive", size)
	}
	path, err := s.plannedRoute(srcHost, depotHost)
	if err != nil {
		return StoreResult{}, err
	}
	si, di := path[0], path[len(path)-1]
	if !s.Topo.Hosts[di].Depot {
		return StoreResult{}, fmt.Errorf("core: host %s runs no depot", depotHost)
	}
	// A store runs on the engine like a transfer; the storing depot, not
	// a sink, confirms it, over the same status query as over TCP.
	start, o := time.Now(), Object{Type: wire.TypeStore, Trace: mintTrace(), Dst: s.endpoints[di], Size: size}
	eng := s.engine(si, di)
	eng.Await = depot.RemoteAwait(eng.Dial, eng.Src, o.Dst, transferTimeout, func(string, ...any) {})
	if o.ID, err = wire.NewSessionID(); err == nil {
		if err = ctx.Err(); err == nil { // a context already done stores nothing
			err = eng.Once(ctx, o, Route{Via: s.route(path)}, transferTimeout)
		}
	}
	if err != nil {
		return StoreResult{}, fmt.Errorf("core: store at %s: %w", depotHost, err)
	}
	return StoreResult{Session: o.ID, Bytes: size, Elapsed: time.Duration(float64(time.Since(start)) / s.cfg.TimeScale), Path: s.hostNames(path)}, nil
}

// FetchFrom retrieves a stored session from depotHost to dstHost,
// verifying the payload pattern end to end, bounded by the package
// transfer timeout.
func (s *System) FetchFrom(dstHost, depotHost string, id wire.SessionID) (TransferResult, error) {
	di, pi, err := s.pair(dstHost, depotHost)
	if err != nil {
		return TransferResult{}, err
	}
	ctx, cancel := context.WithTimeout(s.ctx, transferTimeout)
	defer cancel()
	start := time.Now()
	total, err := s.engine(di, pi).Fetch(ctx, s.endpoints[pi], id, mintTrace())
	if err != nil {
		return TransferResult{}, err
	}
	return s.result(total, time.Since(start), []int{pi, di}), nil
}
