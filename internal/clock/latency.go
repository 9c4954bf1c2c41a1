package clock

import (
	"fmt"
	"time"
)

// LatencyModel describes the service-time distribution of a simulated
// operation: a base cost, Gaussian jitter, and a heavy tail that fires with
// probability TailProb and adds up to TailExtra. This three-part shape is
// enough to reproduce the paper's average / stdev / p99 triples (Table I).
type LatencyModel struct {
	// Base is the typical service time.
	Base time.Duration
	// Jitter is the standard deviation of Gaussian noise around Base.
	Jitter time.Duration
	// TailProb is the probability, in [0, 1], that a request lands in the
	// heavy tail.
	TailProb float64
	// TailExtra bounds the additional latency of a tail event; the actual
	// extra is uniform in [0, TailExtra).
	TailExtra time.Duration
}

// Fixed returns a model with no jitter and no tail.
func Fixed(d time.Duration) LatencyModel {
	return LatencyModel{Base: d}
}

// Sample draws one service time. The result is never below Base/4, keeping
// the distribution positive and right-skewed like real device latencies.
// It costs three random words for the jitter and one for the tail: given
// u < TailProb, u/TailProb is uniform on [0, 1), so the decision word is
// also the tail's magnitude.
func (m LatencyModel) Sample(r *Rand) time.Duration {
	d := m.Base
	if m.Jitter > 0 {
		d += time.Duration(r.NormFloat64() * float64(m.Jitter))
	}
	if m.TailProb > 0 {
		if u := r.Float64(); u < m.TailProb {
			d += time.Duration(u / m.TailProb * float64(m.TailExtra))
		}
	}
	if min := m.Base / 4; d < min {
		d = min
	}
	return d
}

func (m LatencyModel) String() string {
	return fmt.Sprintf("latency{base=%v jitter=%v tail=%.3f%%/%v}",
		m.Base, m.Jitter, m.TailProb*100, m.TailExtra)
}

// Device models a serial resource (a NIC, a disk, a store server thread):
// requests are serviced one at a time, so a request arriving while the device
// is busy queues behind it. Completion time is therefore
// max(now, busyUntil) + service.
type Device struct {
	Model LatencyModel

	rng       *Rand
	busyUntil time.Duration
}

// NewDevice returns a device with the given service-time model and RNG seed.
func NewDevice(model LatencyModel, seed uint64) *Device {
	return &Device{Model: model, rng: NewRand(seed)}
}

// Submit enqueues a request at virtual time now and returns the virtual time
// at which it completes.
func (d *Device) Submit(now time.Duration) time.Duration {
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + d.Model.Sample(d.rng)
	return d.busyUntil
}

// SubmitN enqueues n back-to-back requests (e.g. a multi-write batch) and
// returns the completion time of the last one. Batched requests pay the base
// cost once plus a per-item marginal cost of Base/4, modelling amortised
// batching such as RAMCloud multi-write.
func (d *Device) SubmitN(now time.Duration, n int) time.Duration {
	if n <= 0 {
		return now
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	svc := d.Model.Sample(d.rng)
	if n > 1 {
		svc += time.Duration(n-1) * (d.Model.Base / 4)
	}
	d.busyUntil = start + svc
	return d.busyUntil
}

// Reset clears queued work, e.g. between benchmark phases.
func (d *Device) Reset() {
	d.busyUntil = 0
}
