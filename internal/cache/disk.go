package cache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/netlogistics/lsl/internal/wire"
)

// spanExt suffixes spilled-span files; everything else in the cache
// directory is either a tmp leftover or not ours.
const spanExt = ".c"

// spanFileName is the content-addressed name of a spilled span:
// <sha256><object size><span offset><span length>, hex, dash-joined.
// The name alone rebuilds the index entry; the CRC framing inside the
// file proves the bytes.
func spanFileName(key wire.ContentDigest, off, length int64) string {
	return fmt.Sprintf("%064x-%016x-%016x-%016x%s", key.Sum, uint64(key.Size), uint64(off), uint64(length), spanExt)
}

// parseSpanName inverts spanFileName.
func parseSpanName(name string) (key wire.ContentDigest, off, length int64, ok bool) {
	base, found := strings.CutSuffix(name, spanExt)
	if !found {
		return key, 0, 0, false
	}
	parts := strings.Split(base, "-")
	if len(parts) != 4 || len(parts[0]) != 2*wire.DigestLen {
		return key, 0, 0, false
	}
	for i := 0; i < wire.DigestLen; i++ {
		b, err := strconv.ParseUint(parts[0][2*i:2*i+2], 16, 8)
		if err != nil {
			return key, 0, 0, false
		}
		key.Sum[i] = byte(b)
	}
	nums := make([]int64, 3)
	for i, p := range parts[1:] {
		v, err := strconv.ParseUint(p, 16, 63)
		if err != nil {
			return key, 0, 0, false
		}
		nums[i] = int64(v)
	}
	key.Size = nums[0]
	if nums[2] <= 0 || nums[1] < 0 || nums[1]+nums[2] > key.Size {
		return key, 0, 0, false
	}
	return key, nums[1], nums[2], true
}

// recover re-indexes spilled spans left by a previous process. Every
// candidate file is streamed through the CRC frame verifier before it
// re-enters the index; torn, damaged, misnamed or overlapping files
// are removed and counted rather than trusted. Tmp leftovers from
// interrupted spills are swept. Called once from New, before the cache
// is shared.
func (c *Cache) recover() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cache: re-index %s: %w", c.dir, err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(c.dir, de.Name())
		if !strings.HasSuffix(de.Name(), spanExt) {
			// Interrupted spill leftovers; never current state.
			if strings.Contains(de.Name(), spanExt+".tmp") {
				os.Remove(path)
			}
			continue
		}
		key, off, length, ok := parseSpanName(de.Name())
		if !ok {
			os.Remove(path)
			c.dropped++
			continue
		}
		framed, payload, verr := verifySpanFile(path)
		if verr != nil || payload != length {
			os.Remove(path)
			c.dropped++
			continue
		}
		e := c.entries[key]
		if e == nil {
			e = &entry{}
			c.entries[key] = e
		}
		if gaps := uncovered(e.spans, off, off+length); len(gaps) != 1 || gaps[0] != (wire.ByteRange{Off: off, Len: length}) {
			// Overlaps something already indexed — drop the duplicate.
			os.Remove(path)
			c.dropped++
			continue
		}
		sp := &span{key: key, off: off, length: length, framed: framed, path: path}
		sp.el = c.lru.PushBack(sp)
		c.diskUsed += framed
		e.spans = insertSpan(e.spans, sp)
		c.recovered++
	}
	// Re-verify full objects end to end so the inventory only ever
	// advertises digests this process has proven.
	for key, e := range c.entries {
		if coversAll(e.spans, key.Size) {
			sum, ok := hashSpans(snapshot(e.spans))
			c.verifyComplete(key, e, sum, ok)
		}
	}
	// A shrunken budget takes effect immediately: recovery itself can
	// overflow the disk tier, evicting in (arbitrary) recovered order.
	c.rebalance()
	c.setOccupancy()
	return nil
}

// verifySpanFile streams one spilled file through the CRC verifier,
// returning its framed size and payload length.
func verifySpanFile(path string) (framed, payload int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	n, err := io.Copy(io.Discard, wire.NewFrameReader(f))
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), n, nil
}
