package core

import (
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/wire"
)

// MetricDigestMismatches counts deliveries whose end-to-end SHA-256
// digest disagreed with the digest the sender minted — corruption that
// slipped past every per-hop chunk checksum, caught at the sink.
const MetricDigestMismatches = depot.MetricDigestMismatches

// integrityOptions are the header options an integrity-enabled transfer
// carries: per-chunk CRC-32C framing verified at every depot hop, a
// whole-object SHA-256 digest the sink checks on completion, and
// noCache, since no repeat of a fresh session id asks a cache for it.
// The digest is computable before the first byte moves because the
// payload is the deterministic session pattern keyed by id
// (depot.PatternDigest); it costs a pass over the whole object, so a
// transfer computes it once and hands it in.
func integrityOptions(digest wire.ContentDigest) []wire.Option {
	return []wire.Option{wire.ChunkChecksumOption(), wire.ContentDigestOption(digest), noCache}
}

// noCache lets no depot admit a session's payload to its cache.
var noCache = wire.CacheAtOption(wire.Endpoint{})
