package lsl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/netlogistics/lsl/internal/wire"
)

// CacheProbe asks the depot at depotAddr which byte ranges of the
// digest-named object its content-addressed cache holds. An empty
// slice means "none of it"; ErrRefused means the depot runs no cache.
// The probe is a single request/response exchange on its own
// connection, done by deadline, deliberately cheap: initiators fan it
// across a path's depots before deciding whether a transfer can be
// served from cache.
func CacheProbe(d Dialer, self, depotAddr wire.Endpoint, digest wire.ContentDigest, deadline time.Time) ([]wire.ByteRange, error) {
	resp, err := exchange(d, Spec{Type: wire.TypeCacheProbe, Src: self, Dst: depotAddr, Options: []wire.Option{wire.CacheLookupOption(digest)}}, deadline)
	if err != nil {
		return nil, err
	}
	resp.Close()
	ranges, _ := resp.Header.CacheAdvert()
	return ranges, nil
}

// CacheInventory asks the depot at depotAddr for its full cache
// inventory: the content digests it holds complete. ErrRefused means
// the depot runs no cache. Controllers poll this during probe rounds
// to build the mesh-wide digest→holders map cache-aware planning
// scores routes with. The whole exchange ends by deadline.
func CacheInventory(d Dialer, self, depotAddr wire.Endpoint, deadline time.Time) ([]wire.ContentDigest, error) {
	resp, err := exchange(d, Spec{Type: wire.TypeCacheProbe, Src: self, Dst: depotAddr}, deadline)
	if err != nil {
		return nil, err
	}
	resp.Close()
	return resp.Header.CacheLookups(), nil
}

// Status asks the sink at sp.Dst for its report of the session sp
// names by id, trace option and resume offset, waiting until ctx's
// deadline, which it must carry, or until ctx ends. ErrRefused means
// the depot there runs no sink, or is a peer without status queries,
// which closes them unanswered. A report still to come is answered
// wire.VerdictPending: the caller asks again.
func Status(ctx context.Context, d Dialer, sp Spec) (wire.Status, error) {
	sp.Type = wire.TypeStatus
	deadline, _ := ctx.Deadline()
	resp, err := exchange(DialerFunc(func(address string) (net.Conn, error) {
		conn, err := d.Dial(address)
		if err == nil {
			// Ending ctx closes the query, which ends its wait.
			context.AfterFunc(ctx, func() { conn.Close() })
		}
		return conn, err
	}), sp, deadline)
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("%w: %s closed the status query unanswered", ErrRefused, sp.Dst)
	}
	if err != nil {
		return wire.Status{}, err
	}
	defer resp.Close()
	return wire.ReadStatus(resp)
}

// exchange runs the first half of one request/response round trip by
// deadline: it opens sp and reads the answer's header, which must be of
// sp's type. The session it returns holds that header and is positioned
// after it; the caller closes it.
func exchange(d Dialer, sp Spec, deadline time.Time) (*Session, error) {
	req, err := Start(TimeoutDialer(d, max(time.Until(deadline), time.Nanosecond)), sp)
	if err != nil {
		return nil, err
	}
	_ = req.SetDeadline(deadline)
	resp, err := wire.ReadHeader(req)
	switch {
	case err != nil:
		err = fmt.Errorf("lsl: response to type %d: %w", sp.Type, err)
	case resp.Type == wire.TypeRefuse:
		metrics().Counter(MetricRefusalsSeen).Inc()
		err = ErrRefused
	case resp.Type != sp.Type:
		err = fmt.Errorf("lsl: response type %d to a type %d request", resp.Type, sp.Type)
	}
	if err != nil {
		req.Close()
		return nil, err
	}
	return &Session{Conn: req.Conn, Header: resp}, nil
}
