// Package fairshare implements the depot's multi-tenant bandwidth
// arbiter: a weighted deficit-round-robin (DRR) chunk scheduler.
//
// A depot serving N concurrent sessions runs one forwarding pump per
// session; without coordination, the pumps race each other into the
// downstream sublinks and one aggressive transfer can starve every
// other session sharing a trunk — the aggregate-flow pathology TCP
// Trunking (Kung & Wang, 1998) manages at the trunk and the
// utilization-vs-fairness tension Freemon (2014) documents for
// guaranteed-bandwidth long-fat networks. The scheduler makes the
// contention explicit: every pump asks for credit before forwarding a
// chunk, and credit is paid in rounds — one full DRR revolution at a
// time, quantum×weight bytes to every flow with an unmet request.
// Paying the whole revolution in one batch is deliberate: granting
// flows one at a time makes the schedule sensitive to which pump
// happens to be mid-copy when its turn comes up, and those
// microsecond-scale races flatten weighted shares toward equality.
// A batch round charges the shared trunk horizon for every byte it
// grants, and the next round opens only when the horizon arrives —
// so under a configured trunk rate, wall-clock trunk time divides
// exactly as round sizes do, weight to weight.
//
// Without a trunk rate the scheduler is purely work-conserving:
// rounds open on demand and no flow is ever slowed, because fairness
// is only meaningful at a bottleneck and must cost nothing when the
// data path is unconstrained.
package fairshare

import (
	"sync"
	"time"

	"github.com/netlogistics/lsl/internal/bufpool"
)

// DefaultQuantum is the per-weight-unit byte credit of one round.
// It matches the largest chunk the depot forwards — the pool's larger
// buffer, one whole checksummed frame: DRR's fairness bound requires the quantum to be
// at least the maximum "packet" (here, chunk) size, because a round
// tops an oversized request up in full whatever the flow's weight, and
// exactly one chunk per unit weight per round keeps the schedule's
// granularity as fine as the data path allows.
const DefaultQuantum = bufpool.FrameSize

// Config parameterizes a Scheduler.
type Config struct {
	// Quantum is the byte credit granted per weight unit per round
	// (0 selects DefaultQuantum). It should be at least the largest
	// chunk the data path forwards; a round additionally tops an
	// oversized request up in full, so a heavy chunk can never wait on
	// credit that accumulates one quantum at a time.
	Quantum int
	// Rate, when positive, paces aggregate grants to this many bytes
	// per second — the shared-trunk model: the scheduler then behaves
	// like a sublink of that capacity divided among the flows by
	// weight. Zero disables pacing (pure work-conserving arbitration).
	Rate float64
}

// Scheduler arbitrates chunk forwarding among concurrent flows.
type Scheduler struct {
	mu      sync.Mutex
	quantum int64
	rate    float64
	flows   []*Flow
	horizon time.Time // trunk time already claimed by paid rounds
}

// Flow is one session's handle on the scheduler. The zero value is not
// usable; obtain flows from Join. A nil *Flow is valid everywhere and
// does nothing, so unscheduled data paths need no branches.
type Flow struct {
	s       *Scheduler // set by Join, never changed
	left    bool       // Leave has run; guarded, like what follows, by s.mu
	weight  int64
	deficit int64 // granted, unspent byte credit
	need    int64 // bytes the flow's blocked Acquire is asking for
	waiting bool
}

// New builds a scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	return &Scheduler{quantum: int64(cfg.Quantum), rate: cfg.Rate}
}

// Join registers a new flow with the given weight (values below 1 are
// clamped to 1). The flow participates in arbitration until Leave.
func (s *Scheduler) Join(weight int) *Flow {
	if s == nil {
		return nil
	}
	if weight < 1 {
		weight = 1
	}
	f := &Flow{s: s, weight: int64(weight)}
	s.mu.Lock()
	s.flows = append(s.flows, f)
	s.mu.Unlock()
	return f
}

// Leave removes the flow from arbitration. Unspent deficit — and, under
// a trunk rate, the trunk time already claimed for it — is discarded;
// the waste is bounded by one round. Safe on a nil flow and idempotent.
func (f *Flow) Leave() {
	if f == nil {
		return
	}
	s := f.s
	s.mu.Lock()
	for i, fl := range s.flows {
		if fl == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			break
		}
	}
	f.left = true
	s.mu.Unlock()
}

// Acquire blocks until the flow holds credit for n bytes, then spends
// it. Blocked flows sleep out the trunk horizon and pay rounds as it
// arrives; with no trunk rate configured, rounds open on demand and
// Acquire never sleeps. A nil flow returns immediately — the
// unscheduled pump.
func (f *Flow) Acquire(n int) {
	if f == nil || n <= 0 {
		return
	}
	s := f.s
	need := int64(n)
	s.mu.Lock()
	for !f.left && f.deficit < need {
		f.waiting = true
		f.need = need
		if wait := s.gateWait(); wait > 0 {
			// The trunk is still serving already-paid rounds: sleep
			// until the horizon arrives. Another flow's round may pay
			// this one meanwhile; the loop re-checks either way.
			// Should the flow be removed meanwhile (Leave from another
			// goroutine), the loop lets the caller proceed, not deadlock.
			s.mu.Unlock()
			time.Sleep(wait)
			s.mu.Lock()
			continue
		}
		s.round()
	}
	f.waiting = false
	f.deficit -= need
	s.mu.Unlock()
}

// gateWait reports how long the next round must wait for the trunk to
// finish serving the rounds already paid. Zero when unpaced, when the
// horizon has arrived, or when no round was ever paid. Callers hold
// s.mu.
func (s *Scheduler) gateWait() time.Duration {
	if s.rate <= 0 || s.horizon.IsZero() {
		return 0
	}
	if d := time.Until(s.horizon); d > 0 {
		return d
	}
	return 0
}

// round runs one full DRR revolution: every flow with an unmet request
// is paid quantum×weight — floored at its pending need, so an
// oversized request is satisfied in one round instead of spinning —
// and the shared trunk horizon is charged for the total. Flows whose
// deficit already covers their need are skipped: credit never
// accumulates past one round ahead of demand. Callers hold s.mu.
func (s *Scheduler) round() {
	var granted int64
	for _, fl := range s.flows {
		if !fl.waiting || fl.deficit >= fl.need {
			continue
		}
		g := s.quantum * fl.weight
		if fl.deficit+g < fl.need {
			g = fl.need - fl.deficit
		}
		fl.deficit += g
		granted += g
	}
	if granted == 0 || s.rate <= 0 {
		return
	}
	start := time.Now()
	if s.horizon.After(start) {
		start = s.horizon
	}
	s.horizon = start.Add(time.Duration(float64(granted) / s.rate * float64(time.Second)))
}

// Flows reports how many flows are currently joined.
func (s *Scheduler) Flows() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}
