// Package retry provides the fault-tolerance primitives shared by the
// LSL data path: context-aware exponential backoff with deterministic
// jitter, and a typed classification of transfer errors into transient
// faults (worth retrying: refused connections, timed-out reads, torn
// sublinks) and fatal ones (protocol violations, verification
// mismatches, invalid requests — retrying cannot help).
//
// The chain-of-sublinks architecture multiplies failure points: a
// five-hop session has five TCP connections and four depot processes
// that can each die independently. This package is the vocabulary the
// rest of the stack uses to talk about those failures.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"syscall"
	"time"

	"github.com/netlogistics/lsl/internal/wire"
)

// Class partitions errors by how a caller should react.
type Class int

const (
	// Transient faults are expected path events — a refused dial, a
	// read deadline, a torn connection. Retrying (possibly on another
	// route) can succeed.
	Transient Class = iota
	// Fatal faults are protocol or usage errors; retrying the same
	// operation will fail the same way.
	Fatal
)

// String returns the class name.
func (c Class) String() string {
	if c == Fatal {
		return "fatal"
	}
	return "transient"
}

// classified wraps an error with an explicit class, overriding the
// heuristics in Classify.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// As marks err as of class c regardless of its underlying type. A nil
// err stays nil.
func As(c Class, err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: c}
}

// AsFatal marks err as fatal regardless of its underlying type. A nil
// err stays nil.
func AsFatal(err error) error { return As(Fatal, err) }

// AsTransient marks err as transient regardless of its underlying type.
// A nil err stays nil.
func AsTransient(err error) error { return As(Transient, err) }

// ErrExhausted wraps the final attempt's error when a Policy runs out
// of attempts.
var ErrExhausted = errors.New("retry: attempts exhausted")

// Classify sorts an error into Transient or Fatal. Explicit marks from
// AsFatal/AsTransient win; otherwise network-shaped failures (refused
// or reset connections, deadline expiries, timeouts, torn streams) are
// transient and everything else — protocol violations, verification
// failures, bad arguments — is fatal. A nil error is transient (the
// zero Class), but callers are expected to test err != nil first.
func Classify(err error) Class {
	if err == nil {
		return Transient
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ETIMEDOUT):
		return Transient
	// Detected data corruption is transient by design: the damaged
	// range is re-sent via the resume path, and persistent corruption
	// is routed around by failover — never surfaced as a fatal abort
	// while recovery options remain.
	case errors.Is(err, wire.ErrChecksum),
		errors.Is(err, wire.ErrDigest):
		return Transient
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return Transient
	}
	// The emulated network and the depot fault injector produce plain
	// errors.New values; recognize their surface text so the in-process
	// stack classifies like the real one.
	msg := err.Error()
	for _, marker := range []string{
		"connection refused",
		"connection closed",
		"connection reset",
		"broken pipe",
		"use of closed network connection",
		"injected fault",
	} {
		if strings.Contains(msg, marker) {
			return Transient
		}
	}
	return Fatal
}

// IsTransient reports whether err should be retried.
func IsTransient(err error) bool { return err != nil && Classify(err) == Transient }

// IsFatal reports whether retrying err is pointless.
func IsFatal(err error) bool { return err != nil && Classify(err) == Fatal }

// Policy describes an exponential backoff schedule.
type Policy struct {
	// MaxAttempts bounds the total number of tries (the first attempt
	// included). Zero or negative means a single attempt — no retry.
	MaxAttempts int
	// BaseDelay is the delay before the first retry (default 50 ms
	// when retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 5 s).
	MaxDelay time.Duration
	// Multiplier is the per-retry growth factor (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in [0, 1):
	// delay d becomes d*(1-Jitter) + rand*d*Jitter. Zero means no
	// jitter; the paper-reproduction default is 0.2 so synchronized
	// retries against one recovering depot spread out.
	Jitter float64
	// Rand supplies the jitter randomness. Nil falls back to a fixed
	// seed, keeping tests deterministic.
	Rand *rand.Rand
}

// DefaultPolicy is the stack's standard schedule: 4 attempts, 50 ms
// base, doubling to a 5 s cap, 20% jitter.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2, Jitter: 0.2}
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0
	}
	return p
}

// Delay returns the backoff before retry number retryIdx (0 = the
// first retry). Jitter, when configured, randomizes the tail fraction
// of the delay.
func (p Policy) Delay(retryIdx int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 0; i < retryIdx; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		r := p.Rand
		if r == nil {
			r = fallbackRand
		}
		d = d*(1-p.Jitter) + r.Float64()*d*p.Jitter
	}
	return time.Duration(d)
}

// fallbackRand keeps jitter deterministic when no source is injected.
var fallbackRand = rand.New(rand.NewSource(1))

// Sleep waits for the retryIdx'th backoff delay or until ctx is done,
// returning ctx.Err() in the latter case.
func (p Policy) Sleep(ctx context.Context, retryIdx int) error {
	d := p.Delay(retryIdx)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn up to MaxAttempts times, backing off between attempts.
// It stops early on success, on a fatal error, or when ctx is done.
// The attempt number passed to fn starts at 0. On exhaustion the last
// error is wrapped with ErrExhausted so callers can distinguish "gave
// up" from "cannot work".
func (p Policy) Do(ctx context.Context, fn func(attempt int) error) error {
	p = p.withDefaults()
	var last error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = fn(attempt)
		if last == nil {
			return nil
		}
		if IsFatal(last) {
			return last
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		if err := p.Sleep(ctx, attempt); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, p.MaxAttempts, last)
}
