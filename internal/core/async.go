package core

import (
	"context"
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/lsl"
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
// aborts the payload write and the wait for the depot's store
// confirmation.
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
	if err := ctx.Err(); err != nil {
		return StoreResult{}, fmt.Errorf("core: store at %s: %w", depotHost, err)
	}

	start := time.Now()
	// Stores are traced like transfers: the depot-side events of the
	// staging leg share one correlation key.
	sess, err := lsl.Start(s.dialerFor(si), lsl.Spec{
		Type:    wire.TypeStore,
		Src:     s.endpoints[si],
		Dst:     s.endpoints[di],
		Route:   s.route(path),
		Options: traceOpt(mintTrace()),
	})
	if err != nil {
		return StoreResult{}, err
	}
	// The context bounds the write: cancellation closes the session
	// under it.
	stop := context.AfterFunc(ctx, func() { sess.Close() })
	werr := writeSessionPattern(sess, 0, size)
	if !stop() {
		return StoreResult{}, fmt.Errorf("core: store at %s: %w", depotHost, ctx.Err())
	}
	sess.Close()
	if werr != nil {
		return StoreResult{}, fmt.Errorf("core: store send: %w", werr)
	}

	// The store is confirmed when the depot holds the whole session.
	// The depot exposes no completion signal, so poll on a ticker — but
	// under the context, not a hand-rolled wall-clock deadline.
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		if n, ok := s.depots[di].StoredSession(sess.ID()); ok && n >= size {
			break
		}
		select {
		case <-ctx.Done():
			return StoreResult{}, fmt.Errorf("core: store at %s: %w", depotHost, ctx.Err())
		case <-tick.C:
		}
	}
	elapsed := time.Duration(float64(time.Since(start)) / s.cfg.TimeScale)
	return StoreResult{
		Session: sess.ID(),
		Bytes:   size,
		Elapsed: elapsed,
		Path:    s.hostNames(path),
	}, nil
}

// FetchFrom retrieves a stored session from depotHost to dstHost,
// verifying the payload pattern end to end.
func (s *System) FetchFrom(dstHost, depotHost string, id wire.SessionID) (TransferResult, error) {
	di, err := s.resolve(dstHost)
	if err != nil {
		return TransferResult{}, err
	}
	pi, err := s.resolve(depotHost)
	if err != nil {
		return TransferResult{}, err
	}

	start := time.Now()
	sess, err := lsl.Fetch(s.dialerFor(di), s.endpoints[di], s.endpoints[pi], id)
	if err != nil {
		return TransferResult{}, fmt.Errorf("core: fetch: %w", err)
	}
	defer sess.Close()

	total, err := depot.ReadVerified(sess, id, 0, false, nil)
	if err != nil {
		return TransferResult{}, fmt.Errorf("core: fetch: %w", err)
	}
	return s.result(total, time.Since(start), []int{pi, di}), nil
}
