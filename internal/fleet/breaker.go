// Package fleet is the front tier of the serving stack: a health-checked
// router that proxies tuning queries to N mpicollserve replicas with
// consistent-hash-by-instance routing, least-loaded fallback, per-replica
// circuit breakers, bounded retries with jittered exponential backoff,
// hedged requests for p99 stragglers, and a canary rollout state machine
// that distributes versioned snapshots one replica at a time with
// auto-rollback on breach. Everything runs as plain local processes — the
// fleet is an architecture, not an orchestrator dependency — and every
// stochastic routing decision (jitter, probe draws) comes from seeded RNG
// streams so fleet tests replay deterministically.
package fleet

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe request; its outcome decides
	// between reclosing and reopening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// A breaker opens after breakerThreshold consecutive failures and tries a
// half-open probe breakerCooldown after it opened.
const (
	breakerThreshold = 5
	breakerCooldown  = 2 * time.Second
)

// Breaker is a per-replica circuit breaker. The clock is passed into Allow
// and Report rather than read inside, so tests drive the state machine with
// a synthetic timeline.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	opens      uint64 // lifetime closed/half-open -> open transitions
	rejections uint64 // requests refused while open
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker { return &Breaker{} }

// Allow reports whether a request may pass at time now. While open it
// rejects until the cooldown has elapsed, then admits exactly one probe
// (half-open); concurrent callers during a probe are rejected.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		b.rejections++
		return false
	default: // half-open
		if b.probing {
			b.rejections++
			return false
		}
		b.probing = true
		return true
	}
}

// AbortProbe releases the half-open probe slot without deciding an
// outcome. Called when a probe attempt was cancelled (hedge lost the race,
// client disconnect): the cancelled attempt says nothing about the
// replica's health, but silently dropping the report would leave probing
// set and wedge the breaker in half-open — rejecting everything — until
// process restart.
func (b *Breaker) AbortProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Report folds one request outcome into the breaker.
func (b *Breaker) Report(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
		}
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= breakerThreshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
		}
	}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns the lifetime open transitions and rejected requests.
func (b *Breaker) Stats() (opens, rejections uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.rejections
}
