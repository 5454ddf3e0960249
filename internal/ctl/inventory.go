package ctl

import (
	"context"
	"errors"
	"sort"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// InventoryFunc lists the content digests the named host's depot cache
// holds complete. Tests inject deterministic inventories; production
// uses the wire cache-probe exchange.
type InventoryFunc func(host string) ([]wire.ContentDigest, error)

// Inventory metric names published to Config.Metrics.
const (
	// MetricInventoryDigests gauges how many distinct content digests the
	// mesh-wide inventory currently knows a holder for.
	MetricInventoryDigests = "ctl_inventory_digests"
	// MetricInventoryErrors counts failed inventory polls. Refusals from
	// cacheless depots are not errors — they simply contribute nothing.
	MetricInventoryErrors = "ctl_inventory_errors_total"
)

// refreshInventory polls every registered member for its cache
// inventory and rebuilds the digest→holders map. Called from Round with
// c.mu held. Inventory is strictly best-effort: a member that refuses
// (no cache) or fails to answer drops out of this round's map — stale
// holder claims are worse than missing ones, since planners bend routes
// toward them.
func (c *Controller) refreshInventory(ctx context.Context, rep *RoundReport) {
	inv := c.cfg.Inventory
	if inv == nil {
		if c.cfg.Dial == nil {
			return
		}
		inv = func(host string) ([]wire.ContentDigest, error) { return c.wireInventory(ctx, host) }
	}
	next := make(map[wire.ContentDigest][]string)
	for _, m := range c.members {
		digests, err := inv(m.host)
		if err != nil {
			if !errors.Is(err, lsl.ErrRefused) {
				rep.InventoryErrors++
				c.met.inventoryErrors.Inc()
				c.logf("ctl: inventory %s: %v", m.host, err)
			}
			continue
		}
		rep.Inventoried++
		for _, d := range digests {
			next[d] = append(next[d], m.host)
		}
	}
	for _, hosts := range next {
		sort.Strings(hosts)
	}
	c.holders = next
	c.met.inventoryDigests.Set(int64(len(next)))
}

// Holders returns the hosts whose depot caches held the digest complete
// as of the last control round, sorted by name. An empty slice means no
// known holder. The slice is the caller's to keep.
func (c *Controller) Holders(digest wire.ContentDigest) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.holders[digest]...)
}

// InventorySize reports how many distinct digests the mesh-wide
// inventory knows a holder for.
func (c *Controller) InventorySize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.holders)
}

// wireInventory polls one member's cache inventory over the wire, by
// the round's deadline or PushTimeout from now. Callers hold c.mu.
func (c *Controller) wireInventory(ctx context.Context, host string) ([]wire.ContentDigest, error) {
	for _, m := range c.members {
		if m.host == host {
			return lsl.CacheInventory(c.cfg.Dial, c.cfg.Self, m.addr, c.deadline(ctx))
		}
	}
	return nil, lsl.ErrRefused
}
