// Package resilience is the fault-handling policy layer between the
// FluidMem monitor and its key-value backend. The paper's central argument
// for user-space page-fault handling (§III) is that the memory datapath
// becomes customisable — replication, failover, and graceful degradation
// are provider policies rather than kernel patches. This package is that
// policy: it turns transient backend failures (the kind
// internal/kvstore/faulty injects) into bounded virtual-time stalls instead
// of VM-killing hard errors.
//
// The policy has four mechanisms, applied in order of escalation:
//
//  1. Bounded retry with exponential backoff and deterministic jitter —
//     transient errors (a dropped RPC) are usually gone on the next try.
//  2. A per-operation virtual-time deadline bounding how long the retry
//     loop may burn before escalating.
//  3. Failover — when the same backend keeps failing or limping, a store
//     that supports primary rotation (the replicated wrapper) is told to
//     prefer a different member.
//  4. Degraded mode — sustained failure (every replica down) stops being an
//     error and becomes stall time: the operation parks, probing at a slow
//     cadence until the backend heals or the stall budget is exhausted. The
//     guest experiences a long page fault, exactly what a real machine does
//     when its memory bus degrades, and the health signal tells the
//     provider why.
//
// All timing decisions run on the virtual clock with a seeded PRNG, so a
// chaos schedule plus a seed reproduces the identical retry/failover/stall
// trace on every run.
package resilience

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// ErrStallBudgetExhausted reports an outage that outlived the policy's
// MaxStall: the backend never healed while the operation was parked. This is
// the only hard error the layer emits for a transient-class failure.
var ErrStallBudgetExhausted = errors.New("resilience: backend outage outlived the stall budget")

// HealthState is the coarse backend health signal.
type HealthState int

// Health states.
const (
	// Healthy means recent operations completed within policy.
	Healthy HealthState = iota
	// Degraded means the layer is currently masking sustained failure as
	// stall time (or the last operation had to).
	Degraded
)

func (h HealthState) String() string {
	if h == Degraded {
		return "degraded"
	}
	return "healthy"
}

// Health is the exported health signal.
type Health struct {
	// State is the coarse signal.
	State HealthState
	// ConsecutiveFailures counts back-to-back failed attempts (across
	// operations) since the last success.
	ConsecutiveFailures int
	// StallTime is total virtual time spent parked in degraded mode.
	StallTime time.Duration
	// LastError is the most recent backend error observed (nil if none).
	LastError error
}

// Policy parametrises the layer.
type Policy struct {
	// MaxRetries bounds attempts per operation before the deadline check
	// escalates to degraded mode (the first attempt is not a retry).
	MaxRetries int
	// RetryBase is the first backoff delay; each retry doubles it up to
	// RetryMax. Jitter of up to 50% of the delay is added, drawn from the
	// layer's seeded PRNG (deterministic).
	RetryBase time.Duration
	// RetryMax caps the exponential backoff.
	RetryMax time.Duration
	// OpDeadline is the per-operation virtual-time budget for the retry
	// loop. Once now + OpDeadline passes, the operation escalates to
	// degraded mode rather than retrying hot.
	OpDeadline time.Duration
	// FailoverAfter is the consecutive-failure count that triggers a
	// primary rotation on stores that support it. 0 disables failover.
	FailoverAfter int
	// SlowOpThreshold, when > 0, marks a successful operation slower than
	// this as a "slow op"; FailoverAfter consecutive slow ops also rotate
	// the primary — the gray-replica escape hatch, since a limping member
	// never trips the error path.
	SlowOpThreshold time.Duration
	// DegradedProbe is the probe cadence while parked in degraded mode.
	DegradedProbe time.Duration
	// MaxStall bounds total parked time per operation; beyond it the
	// operation fails hard with ErrStallBudgetExhausted.
	MaxStall time.Duration
}

// DefaultPolicy returns a policy tuned for the simulated backends: retries
// resolve dropped RPCs in tens of microseconds, the deadline is an order of
// magnitude above a healthy remote fault, and the stall budget rides out
// multi-millisecond crash windows.
func DefaultPolicy() Policy {
	return Policy{
		MaxRetries:      4,
		RetryBase:       5 * time.Microsecond,
		RetryMax:        160 * time.Microsecond,
		OpDeadline:      400 * time.Microsecond,
		FailoverAfter:   3,
		SlowOpThreshold: 300 * time.Microsecond,
		DegradedProbe:   250 * time.Microsecond,
		MaxStall:        100 * time.Millisecond,
	}
}

// validate fills zero fields with defaults so a partially specified policy
// behaves sanely.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxRetries == 0 {
		p.MaxRetries = d.MaxRetries
	}
	if p.RetryBase == 0 {
		p.RetryBase = d.RetryBase
	}
	if p.RetryMax == 0 {
		p.RetryMax = d.RetryMax
	}
	if p.OpDeadline == 0 {
		p.OpDeadline = d.OpDeadline
	}
	if p.DegradedProbe == 0 {
		p.DegradedProbe = d.DegradedProbe
	}
	if p.MaxStall == 0 {
		p.MaxStall = d.MaxStall
	}
	return p
}

// primaryRotator is the failover hook: the replicated store implements it.
type primaryRotator interface {
	RotatePrimary() int
}

// Stats counts the layer's interventions.
type Stats struct {
	// Ops is operations entering the layer.
	Ops uint64
	// Retries is failed attempts that were retried.
	Retries uint64
	// BackoffTime is summed backoff delay.
	BackoffTime time.Duration
	// Failovers is primary rotations requested.
	Failovers uint64
	// SlowOps is successful operations over SlowOpThreshold.
	SlowOps uint64
	// DeadlineExceeded is operations whose retry budget ran out.
	DeadlineExceeded uint64
	// DegradedEntries / DegradedExits count transitions into and out of
	// degraded mode.
	DegradedEntries uint64
	DegradedExits   uint64
	// StallTime is summed virtual time parked in degraded mode.
	StallTime time.Duration
	// StallExhausted is operations that failed hard after MaxStall.
	StallExhausted uint64
	// PermanentErrors is non-retryable errors passed through (ErrNotFound,
	// ErrBadValue).
	PermanentErrors uint64
}

// Store is the resilient wrapper. It implements kvstore.Store, so the
// monitor's fault path, writeback engine, and teardown deletes all route
// through the policy transparently.
type Store struct {
	inner  kvstore.Store
	policy Policy
	rng    *clock.Rand
	// tr receives retry/failover/degraded events. These are all declared
	// timing-dependent in the trace taxonomy: whether a retry happens can
	// depend on virtual-time interleaving, so they are excluded from the
	// cross-worker logical digest.
	tr *trace.Tracer

	state       HealthState
	consecFails int
	consecSlow  int
	lastErr     error
	stallTotal  time.Duration
	stats       Stats
}

var _ kvstore.Store = (*Store)(nil)

// Wrap decorates inner with the policy. Zero policy fields take defaults.
func Wrap(inner kvstore.Store, policy Policy, seed uint64) *Store {
	return &Store{inner: inner, policy: policy.withDefaults(), rng: clock.NewRand(seed)}
}

// SetTracer routes the layer's interventions (retries, failovers, degraded
// stalls) to tr; nil disables emission.
func (s *Store) SetTracer(tr *trace.Tracer) { s.tr = tr }

// Name implements kvstore.Store.
func (s *Store) Name() string { return "resilient(" + s.inner.Name() + ")" }

// Inner exposes the wrapped store.
func (s *Store) Inner() kvstore.Store { return s.inner }

// Policy reports the effective (default-filled) policy.
func (s *Store) Policy() Policy { return s.policy }

// ResilienceStats reports the intervention counters.
func (s *Store) ResilienceStats() Stats { return s.stats }

// Health reports the current backend health signal.
func (s *Store) Health() Health {
	return Health{
		State:               s.state,
		ConsecutiveFailures: s.consecFails,
		StallTime:           s.stallTotal,
		LastError:           s.lastErr,
	}
}

// permanent reports errors no retry can fix: the key genuinely absent, or
// the caller's value malformed.
func permanent(err error) bool {
	return errors.Is(err, kvstore.ErrNotFound) || errors.Is(err, kvstore.ErrBadValue)
}

// backoff returns the next delay: base·2^retry capped at RetryMax, plus up
// to 50% deterministic jitter so retries from many faults decorrelate.
func (s *Store) backoff(retry int) time.Duration {
	d := s.policy.RetryBase << uint(retry)
	if d > s.policy.RetryMax || d <= 0 {
		d = s.policy.RetryMax
	}
	return d + time.Duration(s.rng.Float64()*0.5*float64(d))
}

// noteFailure updates failure tracking and fires failover when due. at is
// the virtual time of the failed attempt's completion (trace timestamping
// only).
func (s *Store) noteFailure(at time.Duration, err error) {
	s.consecFails++
	s.consecSlow = 0
	s.lastErr = err
	if s.policy.FailoverAfter > 0 && s.consecFails%s.policy.FailoverAfter == 0 {
		if r, ok := s.inner.(primaryRotator); ok {
			r.RotatePrimary()
			s.stats.Failovers++
			s.tr.Emit(trace.EvFailover, 0, 0, at, 0, "errors")
		}
	}
}

// noteSuccess updates health tracking after a completed operation. at is
// the operation's completion time (trace timestamping only).
func (s *Store) noteSuccess(at, elapsed time.Duration) {
	s.consecFails = 0
	s.lastErr = nil
	if s.state == Degraded {
		s.state = Healthy
		s.stats.DegradedExits++
	}
	if s.policy.SlowOpThreshold > 0 && elapsed > s.policy.SlowOpThreshold {
		s.stats.SlowOps++
		s.consecSlow++
		if s.policy.FailoverAfter > 0 && s.consecSlow >= s.policy.FailoverAfter {
			if r, ok := s.inner.(primaryRotator); ok {
				r.RotatePrimary()
				s.stats.Failovers++
				s.tr.Emit(trace.EvFailover, 0, 0, at, 0, "slow")
			}
			s.consecSlow = 0
		}
	} else {
		s.consecSlow = 0
	}
}

// resume runs the policy loop after a first attempt already failed at done
// with err. The first attempt is made inline by each operation (no closure,
// so the healthy fast path allocates nothing); only failures pay for the
// op closure that the retry/park machinery needs. now is the operation's
// original issue time (deadline and elapsed-time anchor).
func (s *Store) resume(now, done time.Duration, err error, op func(t time.Duration) (time.Duration, error)) (time.Duration, error) {
	deadline := now + s.policy.OpDeadline
	retries := 0
	for {
		if permanent(err) {
			// Not a backend failure; the answer is simply "no".
			s.stats.PermanentErrors++
			return done, err
		}
		s.noteFailure(done, err)
		if retries >= s.policy.MaxRetries || done >= deadline {
			s.stats.DeadlineExceeded++
			return s.park(now, done, op)
		}
		delay := s.backoff(retries)
		s.stats.Retries++
		s.stats.BackoffTime += delay
		s.tr.Emit(trace.EvRetry, 0, 0, done, delay, "")
		retries++
		done, err = op(done + delay)
		if err == nil {
			s.noteSuccess(done, done-now)
			return done, nil
		}
	}
}

// park is degraded mode: the retry budget is spent, so the operation stops
// burning attempts and waits, probing at DegradedProbe cadence until the
// backend heals or MaxStall is exhausted. The caller experiences the wait
// as stall time on the virtual clock — a long fault, not an error.
func (s *Store) park(opStart, now time.Duration, op func(t time.Duration) (time.Duration, error)) (time.Duration, error) {
	if s.state != Degraded {
		s.state = Degraded
		s.stats.DegradedEntries++
		s.tr.Emit(trace.EvDegraded, 0, 0, now, 0, "")
	}
	stallStart := now
	budget := opStart + s.policy.MaxStall
	t := now
	for {
		t += s.policy.DegradedProbe
		if t > budget {
			stalled := t - stallStart
			s.stats.StallTime += stalled
			s.stallTotal += stalled
			s.stats.StallExhausted++
			return t, fmt.Errorf("%w: %v (last: %v)", ErrStallBudgetExhausted, s.policy.MaxStall, s.lastErr)
		}
		done, err := op(t)
		if err == nil {
			stalled := done - stallStart
			s.stats.StallTime += stalled
			s.stallTotal += stalled
			s.noteSuccess(done, done-opStart)
			return done, nil
		}
		if permanent(err) {
			stalled := done - stallStart
			s.stats.StallTime += stalled
			s.stallTotal += stalled
			s.stats.PermanentErrors++
			return done, err
		}
		s.noteFailure(done, err)
		t = done
	}
}

// Put implements kvstore.Store. The first attempt is inline: a healthy
// backend never pays for the retry machinery (no closure allocation).
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	s.stats.Ops++
	done, err := s.inner.Put(now, key, page)
	if err == nil {
		s.noteSuccess(done, done-now)
		return done, nil
	}
	return s.resume(now, done, err, func(t time.Duration) (time.Duration, error) {
		return s.inner.Put(t, key, page)
	})
}

// MultiPut implements kvstore.Store.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	s.stats.Ops++
	done, err := s.inner.MultiPut(now, keys, pages)
	if err == nil {
		s.noteSuccess(done, done-now)
		return done, nil
	}
	return s.resume(now, done, err, func(t time.Duration) (time.Duration, error) {
		return s.inner.MultiPut(t, keys, pages)
	})
}

// Get implements kvstore.Store.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Ops++
	data, done, err := s.inner.Get(now, key)
	if err == nil {
		s.noteSuccess(done, done-now)
		return data, done, nil
	}
	done, err = s.resume(now, done, err, func(t time.Duration) (time.Duration, error) {
		var d time.Duration
		var e error
		data, d, e = s.inner.Get(t, key)
		return d, e
	})
	if err != nil {
		return nil, done, err
	}
	return data, done, nil
}

// MultiGet implements kvstore.Store. A batch read retries, fails over, and
// parks as one unit: per-key misses are nil entries (not errors), so only
// store-level failures enter the policy loop.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	s.stats.Ops++
	pages, done, err := s.inner.MultiGet(now, keys)
	if err == nil {
		s.noteSuccess(done, done-now)
		return pages, done, nil
	}
	done, err = s.resume(now, done, err, func(t time.Duration) (time.Duration, error) {
		var d time.Duration
		var e error
		pages, d, e = s.inner.MultiGet(t, keys)
		return d, e
	})
	if err != nil {
		return nil, done, err
	}
	return pages, done, nil
}

// StartGet implements kvstore.Store. The clean path keeps the inner store's
// true split read (the §V-B overlap). A failed top half falls back to the
// synchronous resilient Get, whose completion time becomes the ReadyAt the
// bottom half waits on — so retries, failover, and degraded stalls are all
// charged into the fault's wait window.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	p := s.inner.StartGet(now, key)
	if p.Err == nil {
		s.stats.Ops++
		s.noteSuccess(p.ReadyAt, p.ReadyAt-now)
		return p
	}
	if permanent(p.Err) {
		s.stats.Ops++
		s.stats.PermanentErrors++
		return p
	}
	s.noteFailure(p.ReadyAt, p.Err)
	data, done, err := s.Get(p.ReadyAt, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	s.stats.Ops++
	done, err := s.inner.Delete(now, key)
	if err == nil {
		s.noteSuccess(done, done-now)
		return done, nil
	}
	return s.resume(now, done, err, func(t time.Duration) (time.Duration, error) {
		return s.inner.Delete(t, key)
	})
}

// Stats implements kvstore.Store, passing through the inner counters.
func (s *Store) Stats() kvstore.Stats { return s.inner.Stats() }

// Local passes through the inner store's locality.
func (s *Store) Local() bool {
	if l, ok := s.inner.(kvstore.Local); ok {
		return l.Local()
	}
	return false
}

// Reput passes through the inner store's re-put property: a retried
// MultiPut resubmits the same slice, which a failed attempt left intact.
func (s *Store) Reput() bool {
	r, ok := s.inner.(kvstore.Reput)
	return ok && r.Reput()
}

// Take passes through to the inner store: it is no store operation, so the
// policy neither retries nor times it.
func (s *Store) Take(key kvstore.Key, buf []byte) bool {
	r, ok := s.inner.(kvstore.Reput)
	return ok && r.Take(key, buf)
}
