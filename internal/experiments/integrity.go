package experiments

import (
	"fmt"
	"time"

	"github.com/netlogistics/lsl/internal/core"
	"github.com/netlogistics/lsl/internal/depot"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/topo"
)

// IntegrityConfig parameterises the end-to-end integrity acceptance
// sweep. Zero fields take DefaultIntegrity values.
type IntegrityConfig struct {
	Seed      int64
	Size      int64 // bytes per transfer
	CorruptAt int64 // payload bytes forwarded before the fault flips a byte
}

// DefaultIntegrity is the configuration the acceptance run uses.
func DefaultIntegrity() IntegrityConfig {
	return IntegrityConfig{Seed: 1, Size: 128 << 10, CorruptAt: 32 << 10}
}

// integrityTimeScale is the integrity sweep's emulation time
// compression.
const integrityTimeScale = 0.001

// acceptancePolicy is the recovery policy of the integrity and cache
// acceptance sweeps: six attempts with fast backoff.
var acceptancePolicy = core.RecoveryPolicy{
	Retry: retry.Policy{
		MaxAttempts: 6,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  2,
	},
	AttemptTimeout: 10 * time.Second,
}

// IntegrityRow is one corruption site's outcome: where the fault was
// injected, where the chunk verifiers caught it, and whether the
// reliable transfer delivered the full object anyway.
type IntegrityRow struct {
	Hop            string // corrupting host, or "none" for the clean baseline
	Injected       int64  // faults the injector actually fired
	ChecksumErrors int64  // depot_checksum_errors_total across the mesh
	DigestMismatch int64  // core_digest_mismatches_total at the sink
	Retries        int64  // core_retry_attempts_total burned recovering
	ResumedBytes   int64  // bytes the continuations did not re-send
	Bytes          int64  // bytes the sink verified
	Recovered      bool   // transfer completed with the full, correct object
}

// integrityTopology is the sweep's testbed: the same two-relay depot
// chain the reliability suite uses, so a fault at either relay sits
// strictly between sender and sink.
func integrityTopology() (*topo.Topology, error) {
	const buf = int64(8 << 20)
	return wan("integrity", []topo.Host{
		{Name: "src", Site: "src", SndBuf: buf, RcvBuf: buf},
		{Name: "relay-a", Site: "a", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "relay-b", Site: "b", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "spare", Site: "c", SndBuf: buf, RcvBuf: buf,
			Depot: true, ForwardRate: 60e6, PipelineBytes: 256 << 10},
		{Name: "dst", Site: "dst", SndBuf: buf, RcvBuf: buf},
	}, []wanLink{
		{"src", "relay-a", 10, 100},
		{"relay-a", "relay-b", 10, 100},
		{"relay-b", "dst", 10, 100},
		{"src", "spare", 10, 50},
		{"spare", "dst", 10, 50},
		{"src", "dst", 10, 2},
		{"src", "relay-b", 10, 4},
		{"relay-a", "dst", 10, 4},
		{"relay-a", "spare", 10, 4},
		{"relay-b", "spare", 10, 4},
	})
}

// Integrity runs the detect-and-recover acceptance sweep: one clean
// baseline transfer, then one transfer per relay with a single byte
// flipped in flight at that relay. Every run uses a fresh system with
// Config.Integrity enabled, so each forwarded chunk is CRC-framed and
// the whole object carries a SHA-256 digest. The sweep passes when the
// baseline counts zero errors and every corrupted run still delivers
// the full object — the fault detected at the corrupting hop, refused
// as transient, and the damaged range re-sent through the resume path.
func Integrity(cfg IntegrityConfig) ([]IntegrityRow, error) {
	def := DefaultIntegrity()
	if cfg.Size <= 0 {
		cfg.Size = def.Size
	}
	if cfg.CorruptAt <= 0 {
		cfg.CorruptAt = def.CorruptAt
	}

	sites := []string{"none", "relay-a", "relay-b"}
	rows := make([]IntegrityRow, 0, len(sites))
	for _, site := range sites {
		row, err := integrityRun(cfg, site)
		if err != nil {
			return nil, fmt.Errorf("experiments: integrity %s: %w", site, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// integrityRun performs one transfer with (or, for "none", without) a
// corruption fault armed at the named relay, on a fresh system so the
// counters are attributable to this run alone.
func integrityRun(cfg IntegrityConfig, site string) (IntegrityRow, error) {
	tp, err := integrityTopology()
	if err != nil {
		return IntegrityRow{}, err
	}
	reg := obs.NewRegistry()
	sys, err := core.NewSystem(tp, core.Config{
		TimeScale: integrityTimeScale,
		Seed:      cfg.Seed,
		Metrics:   reg,
		Integrity: true,
	})
	if err != nil {
		return IntegrityRow{}, err
	}
	defer sys.Close()

	var inj *depot.FaultInjector
	if site != "none" {
		inj, err = sys.Fault(site)
		if err != nil {
			return IntegrityRow{}, err
		}
		inj.CorruptAfter(cfg.CorruptAt)
	}

	res, terr := sys.TransferReliable("src", "dst", cfg.Size, acceptancePolicy)

	row := IntegrityRow{
		Hop:            site,
		ChecksumErrors: reg.Counter(depot.MetricChecksumErrors).Value(),
		DigestMismatch: reg.Counter(core.MetricDigestMismatches).Value(),
		Retries:        reg.Counter(core.MetricRetryAttempts).Value(),
		ResumedBytes:   reg.Counter(core.MetricResumedBytes).Value(),
		Bytes:          res.Bytes,
		Recovered:      terr == nil && res.Bytes == cfg.Size,
	}
	if inj != nil {
		row.Injected = inj.Injected()
	}
	return row, nil
}

// integrityTable renders the sweep table plus a pass/fail verdict.
func integrityTable(rows []IntegrityRow) Table {
	t := tableOf("Integrity: single-hop corruption detected and recovered end to end", []Column{
		{"corrupt@", "%-10s", "corrupt_at", "%s"},
		{"injected", "%8d", "injected", "%d"},
		{"crc_errors", "%10d", "crc_errors", "%d"},
		{"digest", "%8d", "digest_mismatches", "%d"},
		{"retries", "%8d", "retries", "%d"},
		{"resumed_B", "%10d", "resumed_bytes", "%d"},
		{"bytes", "%10d", "bytes", "%d"},
		{"recovered", "%10v", "recovered", "%t"},
	}, rows, func(r IntegrityRow) []any {
		return []any{r.Hop, r.Injected, r.ChecksumErrors, r.DigestMismatch, r.Retries, r.ResumedBytes, r.Bytes, r.Recovered}
	})
	ok := true
	for _, r := range rows {
		if !r.Recovered {
			ok = false
		}
		if r.Hop == "none" && (r.ChecksumErrors > 0 || r.DigestMismatch > 0) {
			ok = false
		}
	}
	if ok {
		t.Notes = []string{"verdict: PASS — every injected fault was caught at the corrupting hop and re-sent via resume"}
	} else {
		t.Notes = []string{"verdict: FAIL — at least one run lost data or miscounted a clean transfer"}
	}
	return t
}
