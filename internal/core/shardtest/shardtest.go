// Package shardtest is the oracle harness for the monitor's multi-worker
// fault pipeline. It replays an identical, seed-driven workload against
// monitors configured with different worker counts and captures everything a
// guest or an operator can observe logically: the bytes returned by every
// Touch, the final resident set, the monitor's logical epoch, the merged
// monitor counters, the backend's per-op traffic counters, and the logical
// digest of the full ordered trace-event sequence.
//
// The pipeline's design contract is that worker parallelism is timing-only —
// sharding the LRU list, the write queues, and the stats cells by page
// address must change WHEN work happens in virtual time, never WHAT work
// happens. The oracle enforces the contract bit-for-bit: any divergence in
// eviction order, flush batching, prefetch traffic, or store op counts
// between a 1-worker and an N-worker monitor shows up as a mismatched
// Outcome. Two fields are deliberately excluded from equivalence: FinalTime
// (more workers SHOULD finish sooner) and Stats.InFlightWaits (it counts a
// virtual-time race — a fault landing while its page's write is still in
// flight — and is therefore legitimately timing-dependent).
package shardtest

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"fluidmem/internal/arbiter"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/market"
	"fluidmem/internal/trace"
)

// Base is the guest physical base address the harness registers.
const Base = 0x7c00_0000_0000

const pid = 77

// Workload is one replayable guest behaviour.
type Workload struct {
	Name string
	// Pages is the registered range size; Steps is the op count.
	Pages int
	Steps int
	// NewConfig builds a fresh config over a fresh store. The harness
	// overrides Workers and Seed.
	NewConfig func(seed uint64) core.Config
	// Discard mixes in balloon-style discards; Resize mixes in runtime
	// LRU-capacity changes.
	Discard bool
	Resize  bool
	// WriteProb shapes the read/write mix: 0 keeps the default one-third
	// write ratio, a positive value is the exact write probability
	// (write-heavy workloads), and a negative value makes the workload
	// read-only (no write ever, so clean-drop can elide every re-eviction).
	WriteProb float64
	// ZeroWrites makes half the writes store a zero byte instead of a tag.
	// The harness only ever writes data[0], so a zero write returns the
	// whole page to all-zero contents — the case zero elision targets.
	ZeroWrites bool
}

// Outcome is everything logically observable from one replay.
type Outcome struct {
	// TouchHash folds the full byte contents returned by every Touch (and
	// the final verification sweep), in order, through FNV-1a.
	TouchHash uint64
	// Resident is the sorted resident set after the final sweep.
	Resident []uint64
	// Stats is the merged monitor counter snapshot.
	Stats core.Stats
	// Store is the backend's traffic counter snapshot.
	Store kvstore.Stats
	// TraceDigest folds the logical event sequence of the replay's trace —
	// event names, arguments, and page addresses, in emission order, with
	// timing-dependent events (waits, retries) and all timestamps excluded.
	// It widens the equivalence contract from counters to the full ordered
	// operation log: two replays that agree on every counter but, say,
	// flush in a different batch order diverge here.
	TraceDigest uint64
	// HotsetDigest folds the ghost-LRU estimator's full logical state —
	// counters, depth histogram, and ordered shadow-list contents. Joining
	// the equivalence contract makes the oracle prove that working-set
	// estimates (and everything the host arbiter derives from them) are
	// identical at every worker count.
	HotsetDigest uint64
	// WSSPages is the 90th-percentile working-set estimate at the final
	// capacity — the human-readable face of HotsetDigest.
	WSSPages int
	// ArbiterPlanDigest folds the reallocation plan a host arbiter would
	// derive from this replay's miss-ratio curve against a fixed synthetic
	// peer VM. Plans are pure functions of the curves, so equal curves MUST
	// yield equal plans; this pins the full estimate→decision path into the
	// worker-count contract.
	ArbiterPlanDigest uint64
	// MarketPlanDigest folds the two-epoch marketplace scenario derived from
	// the same curve: a grant epoch (the replay bids against a healthy flat
	// peer) followed by a claw-back epoch (the peer turns SLO-violating via
	// synthetic window latencies, recalling its donations). Shardtest fault
	// durations are timing-dependent (WB_WAIT), so the SLO inputs here are
	// synthetic constants — what the digest pins is the real
	// curve→bid→lease→claw-back path, which must be a pure function of the
	// logical history at any worker count.
	MarketPlanDigest uint64
	// Trace is the replay's full tracer (events + histograms). It is NOT
	// part of the equivalence contract — timestamps legitimately differ
	// across worker counts — but byte-level determinism tests use it.
	Trace *trace.Tracer
	// FinalTime is the virtual completion time. It is NOT part of the
	// equivalence contract: more workers should finish sooner.
	FinalTime time.Duration
}

// Replay runs wl against a fresh monitor with the given worker count and
// returns the observable outcome. The op sequence is driven entirely by the
// seed — never by virtual time — so two Replays with the same (wl, seed)
// present identical guest behaviour regardless of workers. It also asserts
// the capacity invariant ResidentPages() <= FootprintLimit() after every op,
// resizes and discards included.
func Replay(tb testing.TB, wl Workload, workers int, seed uint64) Outcome {
	tb.Helper()
	cfg := wl.NewConfig(seed)
	cfg.Workers = workers
	cfg.Seed = seed
	store := cfg.Store
	// Trace every replay: the tracer is pure observation (no virtual time,
	// no randomness), so running it unconditionally cannot perturb the
	// outcome — and its logical digest joins the equivalence contract.
	tr := trace.New(true)
	cfg.Trace = tr
	cfg.Store = kvstore.Instrumented(store, tr)
	// Attach the ghost-LRU estimator unconditionally for the same reason:
	// it is pure observation, and its digest joins the equivalence contract.
	hs, err := hotset.New(hotset.DefaultParams(cfg.LRUCapacity))
	if err != nil {
		tb.Fatalf("%s/w%d: new hotset: %v", wl.Name, workers, err)
	}
	cfg.Hotset = hs
	m, err := core.NewMonitor(cfg, nil, "shardtest")
	if err != nil {
		tb.Fatalf("%s/w%d: new monitor: %v", wl.Name, workers, err)
	}
	if _, err := m.RegisterRange(Base, uint64(wl.Pages)*core.PageSize, pid); err != nil {
		tb.Fatalf("%s/w%d: register: %v", wl.Name, workers, err)
	}

	rng := clock.NewRand(seed ^ 0xd1ce_0f_ca11)
	h := fnv.New64a()
	tags := make(map[int]byte)
	scan := 0
	now := time.Duration(0)
	checkFootprint := func(i int) {
		if m.ResidentPages() > m.FootprintLimit() {
			tb.Fatalf("%s/w%d op %d: resident %d exceeds limit %d",
				wl.Name, workers, i, m.ResidentPages(), m.FootprintLimit())
		}
	}
	for i := 0; i < wl.Steps; i++ {
		if wl.Resize && rng.Float64() < 0.01 {
			// Toggle between full and half capacity (§III active sizing).
			capacity := cfg.LRUCapacity
			if rng.Intn(2) == 0 {
				capacity = capacity/2 + 1
			}
			if now, err = m.Resize(now, capacity); err != nil {
				tb.Fatalf("%s/w%d op %d: resize: %v", wl.Name, workers, i, err)
			}
			checkFootprint(i)
			continue
		}
		var page int
		if rng.Float64() < 0.25 {
			// A sequential scan rides along, forcing evictions, remote
			// reads, and (when configured) prefetch windows.
			page = scan % wl.Pages
			scan++
		} else {
			page = rng.Intn(wl.Pages)
		}
		addr := Base + uint64(page)*core.PageSize
		if wl.Discard && rng.Float64() < 0.02 {
			m.Discard(addr)
			delete(tags, page)
			checkFootprint(i)
			continue
		}
		var write bool
		switch {
		case wl.WriteProb < 0:
			write = false
		case wl.WriteProb > 0:
			write = rng.Float64() < wl.WriteProb
		default:
			write = rng.Intn(3) == 0
		}
		data, done, err := m.Touch(now, addr, write)
		if err != nil {
			tb.Fatalf("%s/w%d op %d (page %d): %v", wl.Name, workers, i, page, err)
		}
		if tag, seen := tags[page]; seen && data[0] != tag {
			tb.Fatalf("%s/w%d op %d: page %d corrupted: got %d want %d",
				wl.Name, workers, i, page, data[0], tag)
		}
		h.Write(data)
		if write {
			tag := byte(i%250 + 1)
			if wl.ZeroWrites && rng.Intn(2) == 0 {
				tag = 0 // restores the page to all-zero contents
			}
			data[0] = tag
			tags[page] = tag
		}
		checkFootprint(i)
		now = done + time.Microsecond
	}

	// Quiesce, then verify and fold in every page's end state.
	if now, err = m.Drain(now); err != nil {
		tb.Fatalf("%s/w%d: drain: %v", wl.Name, workers, err)
	}
	for page := 0; page < wl.Pages; page++ {
		tag, seen := tags[page]
		if !seen {
			continue
		}
		data, done, err := m.Touch(now, Base+uint64(page)*core.PageSize, false)
		if err != nil {
			tb.Fatalf("%s/w%d: final read of page %d: %v", wl.Name, workers, page, err)
		}
		if data[0] != tag {
			tb.Fatalf("%s/w%d: page %d lost at end: got %d want %d",
				wl.Name, workers, page, data[0], tag)
		}
		h.Write(data)
		now = done
	}

	return Outcome{
		TouchHash:         h.Sum64(),
		Resident:          m.ResidentAddrs(),
		Stats:             m.Stats(),
		Store:             store.Stats(),
		TraceDigest:       tr.LogicalDigest(),
		HotsetDigest:      hs.Digest(),
		WSSPages:          hs.Snapshot().WSSEstimate(m.FootprintLimit(), 90),
		ArbiterPlanDigest: planDigest(tb, hs.Snapshot(), m.FootprintLimit()),
		MarketPlanDigest:  marketPlanDigest(tb, hs.Snapshot(), m.FootprintLimit()),
		Trace:             tr,
		FinalTime:         now,
	}
}

// planDigest derives the reallocation plan a host arbiter would make from
// the replay's miss-ratio curve paired with a fixed synthetic peer (a flat
// curve at the same share: the canonical donor), and folds the decision —
// every move and every resulting share — through FNV-1a. The peer and the
// policy are constants, so any divergence here traces back to the curve.
func planDigest(tb testing.TB, snap hotset.Snapshot, share int) uint64 {
	tb.Helper()
	step := share / 8
	if step < 1 {
		step = 1
	}
	policy := arbiter.Policy{FloorPages: 1, Step: step, MaxMoves: 4, Hysteresis: 4}
	peer := arbiter.VMView{ID: "peer", SharePages: share,
		Curve: hotset.Curve{BucketPages: snap.Curve.BucketPages, Hits: make([]uint64, len(snap.Curve.Hits))}}
	replayVM := arbiter.VMView{ID: "replay", SharePages: share, Curve: snap.Curve, WindowFaults: snap.Faults}
	plan, err := policy.Decide([]arbiter.VMView{replayVM, peer})
	if err != nil {
		tb.Fatalf("plan digest: %v", err)
	}
	h := fnv.New64a()
	for _, mv := range plan.Moves {
		fmt.Fprintf(h, "%s>%s:%d:%d;", mv.From, mv.To, mv.Pages, mv.PredictedSavings)
	}
	fmt.Fprintf(h, "replay=%d peer=%d", plan.Shares["replay"], plan.Shares["peer"])
	return h.Sum64()
}

// marketPlanDigest derives the marketplace's two-epoch decision sequence
// from the replay's miss-ratio curve: epoch 1 trades (the replay bids
// against a healthy flat peer that carries an SLO), epoch 2 recalls (the
// peer's synthetic window p99 blows its target, so every lease it donated
// is clawed back). Folding both plans plus the final lease-book digest pins
// the full curve→bid→lease→claw-back path into the worker-count contract.
// The SLO inputs are synthetic constants because shardtest fault durations
// are timing-dependent (WB_WAIT); the curve is the real measured one.
func marketPlanDigest(tb testing.TB, snap hotset.Snapshot, share int) uint64 {
	tb.Helper()
	step := share / 8
	if step < 1 {
		step = 1
	}
	mkt, err := market.New(market.Config{FloorPages: 1, Step: step, MaxLeases: 4, Hysteresis: 4})
	if err != nil {
		tb.Fatalf("market plan digest: %v", err)
	}
	peer := arbiter.VMView{ID: "peer", SharePages: share,
		Curve:     hotset.Curve{BucketPages: snap.Curve.BucketPages, Hits: make([]uint64, len(snap.Curve.Hits))},
		SLOTarget: time.Millisecond}
	replayVM := arbiter.VMView{ID: "replay", SharePages: share, Curve: snap.Curve, WindowFaults: snap.Faults}

	h := fnv.New64a()
	foldPlan := func(pl arbiter.Plan) {
		for _, mv := range pl.Moves {
			fmt.Fprintf(h, "%s>%s:%d:%d;", mv.From, mv.To, mv.Pages, mv.PredictedSavings)
		}
		fmt.Fprintf(h, "replay=%d peer=%d|", pl.Shares["replay"], pl.Shares["peer"])
	}
	plan1, err := mkt.Plan([]arbiter.VMView{replayVM, peer})
	if err != nil {
		tb.Fatalf("market plan digest epoch 1: %v", err)
	}
	foldPlan(plan1)
	// Epoch 2: shares advance to the plan, and the peer turns violating.
	replayVM.SharePages = plan1.Shares["replay"]
	peer.SharePages = plan1.Shares["peer"]
	peer.WindowP99 = 2 * time.Millisecond
	plan2, err := mkt.Plan([]arbiter.VMView{replayVM, peer})
	if err != nil {
		tb.Fatalf("market plan digest epoch 2: %v", err)
	}
	foldPlan(plan2)
	fmt.Fprintf(h, "book=%#x", mkt.Digest())
	return h.Sum64()
}

// Equal asserts that got matches the reference outcome in every field of the
// equivalence contract, reporting each divergence separately. FinalTime and
// Stats.InFlightWaits are excluded (timing-dependent by design).
func Equal(tb testing.TB, label string, ref, got Outcome) {
	tb.Helper()
	if ref.TouchHash != got.TouchHash {
		tb.Errorf("%s: touch data hash diverged: %#x vs %#x", label, ref.TouchHash, got.TouchHash)
	}
	if len(ref.Resident) != len(got.Resident) {
		tb.Errorf("%s: resident set size diverged: %d vs %d", label, len(ref.Resident), len(got.Resident))
	} else {
		for i := range ref.Resident {
			if ref.Resident[i] != got.Resident[i] {
				tb.Errorf("%s: resident[%d] diverged: %#x vs %#x", label, i, ref.Resident[i], got.Resident[i])
				break
			}
		}
	}
	refStats, gotStats := ref.Stats, got.Stats
	refStats.InFlightWaits, gotStats.InFlightWaits = 0, 0
	if refStats != gotStats {
		tb.Errorf("%s: monitor stats diverged:\n  ref %+v\n  got %+v", label, refStats, gotStats)
	}
	if ref.Store != got.Store {
		tb.Errorf("%s: store op counts diverged:\n  ref %+v\n  got %+v", label, ref.Store, got.Store)
	}
	if ref.TraceDigest != got.TraceDigest {
		tb.Errorf("%s: logical trace digest diverged: %#x vs %#x (ref %d events, got %d)",
			label, ref.TraceDigest, got.TraceDigest, len(ref.Trace.Events()), len(got.Trace.Events()))
	}
	if ref.HotsetDigest != got.HotsetDigest {
		tb.Errorf("%s: hotset digest diverged: %#x vs %#x", label, ref.HotsetDigest, got.HotsetDigest)
	}
	if ref.WSSPages != got.WSSPages {
		tb.Errorf("%s: WSS estimate diverged: %d vs %d pages", label, ref.WSSPages, got.WSSPages)
	}
	if ref.MarketPlanDigest != got.MarketPlanDigest {
		tb.Errorf("%s: market plan diverged: %#x vs %#x", label, ref.MarketPlanDigest, got.MarketPlanDigest)
	}
	if ref.ArbiterPlanDigest != got.ArbiterPlanDigest {
		tb.Errorf("%s: arbiter plan diverged: %#x vs %#x", label, ref.ArbiterPlanDigest, got.ArbiterPlanDigest)
	}
}
