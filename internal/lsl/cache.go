package lsl

import (
	"fmt"
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
	resp, err := cacheExchange(d, self, depotAddr, []wire.Option{wire.CacheLookupOption(digest)}, deadline)
	if err != nil {
		return nil, err
	}
	ranges, _ := resp.CacheAdvert()
	return ranges, nil
}

// CacheInventory asks the depot at depotAddr for its full cache
// inventory: the content digests it holds complete. ErrRefused means
// the depot runs no cache. Controllers poll this during probe rounds
// to build the mesh-wide digest→holders map cache-aware planning
// scores routes with. The whole exchange ends by deadline.
func CacheInventory(d Dialer, self, depotAddr wire.Endpoint, deadline time.Time) ([]wire.ContentDigest, error) {
	resp, err := cacheExchange(d, self, depotAddr, nil, deadline)
	if err != nil {
		return nil, err
	}
	return resp.CacheLookups(), nil
}

// cacheExchange runs one TypeCacheProbe round trip by deadline.
func cacheExchange(d Dialer, self, depotAddr wire.Endpoint, opts []wire.Option, deadline time.Time) (*wire.Header, error) {
	req, err := Start(TimeoutDialer(d, max(time.Until(deadline), time.Nanosecond)), Spec{Type: wire.TypeCacheProbe, Src: self, Dst: depotAddr, Options: opts})
	if err != nil {
		return nil, err
	}
	defer req.Close()
	_ = req.SetDeadline(deadline)
	resp, err := wire.ReadHeader(req)
	if err != nil {
		return nil, fmt.Errorf("lsl: cache probe response: %w", err)
	}
	if resp.Type == wire.TypeRefuse {
		metrics().Counter(MetricRefusalsSeen).Inc()
		return nil, ErrRefused
	}
	if resp.Type != wire.TypeCacheProbe {
		return nil, fmt.Errorf("lsl: unexpected cache probe response type %d", resp.Type)
	}
	return resp, nil
}
