// Package faulty is the deterministic fault-injection ("chaos") layer for
// key-value backends. It wraps any kvstore.Store and perturbs its behaviour
// on the virtual clock: transient per-operation errors, latency spikes,
// stuck ("gray") phases where the member limps at a fraction of its speed,
// and crash/recover schedules during which every operation is rejected.
//
// All injection decisions come from one seeded PRNG consumed in a fixed
// order per operation, and crash/gray phases are expressed as virtual-time
// windows, so a given seed produces bit-for-bit the same fault sequence on
// every run — the property the chaos tests assert. Everything injected is
// counted, and the exact sequence is recorded in a bounded log so two runs
// can be compared injection by injection.
//
// The memory-disaggregation literature (Maruf & Chowdhury's survey; the
// paper's §III customisation argument) treats tolerance of remote-memory
// failure as the open problem of the field; this package supplies the
// failures, and internal/core/resilience supplies the tolerance.
package faulty

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
)

// Errors injected by the wrapper. Both are transient: a retry may succeed.
var (
	// ErrInjected reports a transient injected failure (a dropped RPC, a
	// timed-out request, a server-side 5xx equivalent).
	ErrInjected = errors.New("faulty: injected transient error")
	// ErrCrashed reports an operation issued while the member is inside a
	// scheduled crash window.
	ErrCrashed = errors.New("faulty: member crashed")
)

// Op identifies an operation class for per-op-type fault rates.
type Op int

// Operation classes.
const (
	OpGet Op = iota
	OpPut
	OpMultiPut
	OpDelete
	OpMultiGet
	opCount
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpMultiPut:
		return "multiput"
	case OpDelete:
		return "delete"
	case OpMultiGet:
		return "multiget"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpFaults configures injection for one operation class.
type OpFaults struct {
	// ErrorRate is the probability an operation fails with ErrInjected
	// after charging ErrorLatency (the request died in flight; the caller
	// still paid the timeout/transport cost).
	ErrorRate float64
	// ErrorLatency is the virtual-time cost of a failed operation.
	ErrorLatency time.Duration
	// SpikeRate is the probability a successful operation is delayed by a
	// latency spike uniform in (0, SpikeExtra].
	SpikeRate float64
	// SpikeExtra bounds the injected spike.
	SpikeExtra time.Duration
}

// Window is a closed virtual-time interval [From, To).
type Window struct {
	From, To time.Duration
}

// contains reports whether t falls inside the window.
func (w Window) contains(t time.Duration) bool {
	return t >= w.From && t < w.To
}

// Params configures a wrapper.
type Params struct {
	// PerOp holds the fault rates per operation class, indexed by Op.
	PerOp [opCount]OpFaults
	// Crashes are windows during which every operation fails with
	// ErrCrashed. The member "recovers" when the window closes; whatever it
	// missed during downtime is the recovery gap the replication layer must
	// repair.
	Crashes []Window
	// CrashRejectLatency is the cost of bouncing off a crashed member
	// (connection refused is fast; much faster than a timeout).
	CrashRejectLatency time.Duration
	// Gray are windows during which the member is stuck but not down: every
	// operation succeeds yet takes an extra GrayDelay — the classic
	// limping-replica failure that crash detection never sees.
	Gray []Window
	// GrayDelay is the per-operation stall inside a gray window.
	GrayDelay time.Duration
}

// Uniform returns Params injecting the same transient-error and spike rates
// into every operation class, with defaults for latencies.
func Uniform(errorRate, spikeRate float64) Params {
	var p Params
	for i := range p.PerOp {
		p.PerOp[i] = OpFaults{
			ErrorRate:    errorRate,
			ErrorLatency: 15 * time.Microsecond,
			SpikeRate:    spikeRate,
			SpikeExtra:   200 * time.Microsecond,
		}
	}
	p.CrashRejectLatency = 2 * time.Microsecond
	p.GrayDelay = 500 * time.Microsecond
	return p
}

// InjectStats counts everything the wrapper injected.
type InjectStats struct {
	// Ops is the total operations that passed through the wrapper.
	Ops uint64
	// TransientErrors counts ErrInjected failures.
	TransientErrors uint64
	// Spikes counts latency spikes; SpikeTime is their summed delay.
	Spikes    uint64
	SpikeTime time.Duration
	// CrashRejects counts operations bounced during a crash window.
	CrashRejects uint64
	// GrayOps counts operations stalled in a gray window; GrayTime is the
	// summed stall.
	GrayOps  uint64
	GrayTime time.Duration
}

// Injection is one recorded fault, identified by the operation's global
// sequence number so two runs can be diffed exactly.
type Injection struct {
	// Seq is the operation's index in the wrapper's lifetime (1-based).
	Seq uint64
	// Op is the operation class.
	Op Op
	// Kind is "error", "spike", "crash", or "gray".
	Kind string
	// At is the virtual time the operation was issued.
	At time.Duration
}

func (i Injection) String() string {
	return fmt.Sprintf("#%d %s %s @%v", i.Seq, i.Op, i.Kind, i.At)
}

// logCap bounds the injection log so long benchmark runs don't accumulate
// unbounded memory; tests that diff logs stay far below it.
const logCap = 1 << 16

// Store is the chaos wrapper.
type Store struct {
	inner  kvstore.Store
	params Params
	rng    *clock.Rand

	seq   uint64
	stats InjectStats
	log   []Injection
}

var _ kvstore.Store = (*Store)(nil)

// Wrap decorates inner with fault injection driven by seed.
func Wrap(inner kvstore.Store, params Params, seed uint64) *Store {
	return &Store{inner: inner, params: params, rng: clock.NewRand(seed)}
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "faulty(" + s.inner.Name() + ")" }

// Inner exposes the wrapped store (tests reach through to verify contents).
func (s *Store) Inner() kvstore.Store { return s.inner }

// InjectStats reports the injection counters.
func (s *Store) InjectStats() InjectStats { return s.stats }

// Log returns the recorded injections (capped at an internal bound).
func (s *Store) Log() []Injection { return s.log }

// Down reports whether the member is inside a crash window at time t.
func (s *Store) Down(t time.Duration) bool {
	for _, w := range s.params.Crashes {
		if w.contains(t) {
			return true
		}
	}
	return false
}

func (s *Store) gray(t time.Duration) bool {
	for _, w := range s.params.Gray {
		if w.contains(t) {
			return true
		}
	}
	return false
}

func (s *Store) record(op Op, kind string, at time.Duration) {
	if len(s.log) < logCap {
		s.log = append(s.log, Injection{Seq: s.seq, Op: op, Kind: kind, At: at})
	}
}

// inject runs the pre-operation fault decision for one op issued at now.
// It always draws the same number of PRNG samples per operation so the
// random sequence — and therefore every later decision — is independent of
// which faults actually fired. It returns the (possibly delayed) issue time
// and a non-nil error if the operation must fail without reaching the inner
// store.
func (s *Store) inject(op Op, now time.Duration) (time.Duration, time.Duration, error) {
	s.seq++
	s.stats.Ops++
	f := s.params.PerOp[op]
	errDraw := s.rng.Float64()
	spikeDraw := s.rng.Float64()
	spikeAmount := s.rng.Float64()

	if s.Down(now) {
		s.stats.CrashRejects++
		s.record(op, "crash", now)
		return now, now + s.params.CrashRejectLatency, ErrCrashed
	}
	var stall time.Duration
	if s.gray(now) {
		s.stats.GrayOps++
		s.stats.GrayTime += s.params.GrayDelay
		s.record(op, "gray", now)
		stall += s.params.GrayDelay
	}
	if f.ErrorRate > 0 && errDraw < f.ErrorRate {
		s.stats.TransientErrors++
		s.record(op, "error", now)
		return now, now + stall + f.ErrorLatency, ErrInjected
	}
	if f.SpikeRate > 0 && spikeDraw < f.SpikeRate {
		spike := time.Duration(spikeAmount * float64(f.SpikeExtra))
		s.stats.Spikes++
		s.stats.SpikeTime += spike
		s.record(op, "spike", now)
		stall += spike
	}
	return now + stall, 0, nil
}

// Put implements kvstore.Store.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	issue, failAt, err := s.inject(OpPut, now)
	if err != nil {
		return failAt, err
	}
	return s.inner.Put(issue, key, page)
}

// MultiPut implements kvstore.Store. The batch is one wire operation, so it
// fails or spikes as a unit.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	issue, failAt, err := s.inject(OpMultiPut, now)
	if err != nil {
		return failAt, err
	}
	return s.inner.MultiPut(issue, keys, pages)
}

// Get implements kvstore.Store.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	issue, failAt, err := s.inject(OpGet, now)
	if err != nil {
		return nil, failAt, err
	}
	return s.inner.Get(issue, key)
}

// MultiGet implements kvstore.Store. Like MultiPut, the batch is one wire
// operation: it fails, spikes, or stalls as a unit.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	issue, failAt, err := s.inject(OpMultiGet, now)
	if err != nil {
		return nil, failAt, err
	}
	return s.inner.MultiGet(issue, keys)
}

// StartGet implements kvstore.Store. Injection happens at issue time; a
// fault surfaces in the returned PendingGet exactly as a lost split read
// would.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	issue, failAt, err := s.inject(OpGet, now)
	if err != nil {
		return kvstore.PendingGet{Key: key, ReadyAt: failAt, Err: err}
	}
	return s.inner.StartGet(issue, key)
}

// Delete implements kvstore.Store.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	issue, failAt, err := s.inject(OpDelete, now)
	if err != nil {
		return failAt, err
	}
	return s.inner.Delete(issue, key)
}

// Stats implements kvstore.Store, passing through the inner counters.
func (s *Store) Stats() kvstore.Stats { return s.inner.Stats() }

// Local passes through the inner store's locality so the monitor's RPC-cost
// accounting is unchanged by wrapping.
func (s *Store) Local() bool {
	if l, ok := s.inner.(kvstore.Local); ok {
		return l.Local()
	}
	return false
}

// Reput passes through the inner store's re-put property: an injected
// failure takes nothing, so what a successful MultiPut keeps is the inner
// store's to decide.
func (s *Store) Reput() bool {
	r, ok := s.inner.(kvstore.Reput)
	return ok && r.Reput()
}

// Take passes through to the inner store, with no injection and no draw: it
// keeps a buffer a successful read already delivered, which is no traffic.
func (s *Store) Take(key kvstore.Key, buf []byte) bool {
	r, ok := s.inner.(kvstore.Reput)
	return ok && r.Take(key, buf)
}
