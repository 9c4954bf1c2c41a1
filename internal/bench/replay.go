package bench

import (
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core"
)

// replayOp is one precomputed guest touch of an open-loop replay.
type replayOp struct {
	addr  uint64
	write bool
	tag   byte
}

// mixedStream precomputes the write-back and trace benches' op stream over
// pages pages at base: mixed reads, tag writes, and zeroing writes. Half the
// touches write; half of those writes zero the page (the harness only ever
// sets data[0], so a zero tag restores all-zero contents).
func mixedStream(seed, base uint64, pages, ops int) []replayOp {
	rng := clock.NewRand(seed ^ 0xb17e_bac4)
	stream := make([]replayOp, ops)
	for i := range stream {
		op := replayOp{addr: base + uint64(rng.Intn(pages))*core.PageSize}
		if rng.Float64() < 0.5 {
			op.write = true
			op.tag = byte(i%249) + 1
			if rng.Intn(2) == 0 {
				op.tag = 0
			}
		}
		stream[i] = op
	}
	return stream
}

// replay is the open-loop monitor replay the workers, write-back and trace
// benches share: a monitor with one populated range, offered a precomputed op
// stream faster than any pipeline width can drain it.
type replay struct {
	m *core.Monitor
	// start is when the populated monitor went quiescent: the measured
	// phase's first arrival.
	start time.Duration
}

// newReplay builds the monitor, registers pages pages at base, and populates
// them: one serial pass writes a non-zero tag into every page and drains, so
// the measured phase starts with every page dirty-backed in the store and is
// pure store traffic (no first-touch zero-fills).
func newReplay(name string, cfg core.Config, base uint64, pages int) (*replay, error) {
	m, err := core.NewMonitor(cfg, nil, name)
	if err != nil {
		return nil, err
	}
	if _, err := m.RegisterRange(base, uint64(pages)*core.PageSize, 1); err != nil {
		return nil, err
	}
	now := time.Duration(0)
	for p := 0; p < pages; p++ {
		data, done, err := m.Touch(now, base+uint64(p)*core.PageSize, true)
		if err != nil {
			return nil, fmt.Errorf("populate page %d: %w", p, err)
		}
		data[0] = byte(p%249) + 1
		now = done
	}
	if now, err = m.Drain(now); err != nil {
		return nil, err
	}
	return &replay{m: m, start: now}, nil
}

// run offers stream through the deterministic event scheduler, arrivals a
// fixed 2 µs apart — far below per-fault service time, so the pipeline, not
// the arrival process, sets the pace: each fault queues behind its own worker
// and the last resume time, finish, marks the pipeline drained. The write list
// is drained before returning.
func (r *replay) run(stream []replayOp) (finish time.Duration, err error) {
	const interArrival = 2 * time.Microsecond
	sched := clock.NewScheduler()
	arrival := r.start
	for i, op := range stream {
		sched.Schedule(arrival, i, func(at time.Duration) {
			if err != nil {
				return
			}
			data, done, terr := r.m.Touch(at, op.addr, op.write)
			if terr != nil {
				err = fmt.Errorf("touch %#x: %w", op.addr, terr)
				return
			}
			if op.write {
				data[0] = op.tag
			}
			if done > finish {
				finish = done
			}
		})
		arrival += interArrival
	}
	sched.Run()
	if err != nil {
		return 0, err
	}
	_, err = r.m.Drain(finish)
	return finish, err
}
