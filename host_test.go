package fluidmem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fluidmem/internal/core"
)

// hostTenants declares n identical FluidMem tenants vm0, vm1, … with no
// policy.
func hostTenants(n int) []TenantSpec {
	specs := make([]TenantSpec, n)
	for i := range specs {
		specs[i] = TenantSpec{ID: fmt.Sprintf("vm%d", i), VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}}
	}
	return specs
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(HostConfig{TotalLocalPages: 64}); err == nil {
		t.Fatal("empty VM list accepted")
	}
	if _, err := NewHost(HostConfig{Tenants: hostTenants(4), TotalLocalPages: 3}); err == nil {
		t.Fatal("budget below one page per VM accepted")
	}
	specs := hostTenants(2)
	specs[1].VM.Mode = ModeSwap
	if _, err := NewHost(HostConfig{Tenants: specs, TotalLocalPages: 64}); err == nil {
		t.Fatal("swap-mode VM accepted into a resizable shared budget")
	}
	_, err := NewHost(HostConfig{Tenants: hostTenants(2), TotalLocalPages: 64, Planner: "greedy"})
	if err == nil || !strings.Contains(err.Error(), `unknown planner "greedy"`) {
		t.Fatalf("unknown planner: err = %v", err)
	}
}

// Capacity inputs must fail NewMachine up front, each with a clear error.
func TestMachineCapacityValidation(t *testing.T) {
	base := MachineConfig{Backend: BackendDRAM, LocalMemory: 1 << 20, GuestMemory: 4 << 20}

	neg := base
	neg.Monitor = &core.Config{LRUCapacity: -5}
	if _, err := NewMachine(neg); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative override capacity: err = %v", err)
	}

	ghost := base
	ghost.Hotset = &HotsetParams{GhostCapacity: 0, BucketPages: 1}
	if _, err := NewMachine(ghost); err == nil || !strings.Contains(err.Error(), "GhostCapacity") {
		t.Fatalf("zero ghost capacity: err = %v", err)
	}
	ghost.Hotset = &HotsetParams{GhostCapacity: -8, BucketPages: 1}
	if _, err := NewMachine(ghost); err == nil || !strings.Contains(err.Error(), "GhostCapacity") {
		t.Fatalf("negative ghost capacity: err = %v", err)
	}

	bucket := base
	bucket.Hotset = &HotsetParams{GhostCapacity: 64, BucketPages: 0}
	if _, err := NewMachine(bucket); err == nil || !strings.Contains(err.Error(), "BucketPages") {
		t.Fatalf("zero bucket width: err = %v", err)
	}

	// A valid Hotset config must still work.
	ok := base
	p := DefaultHotsetParams(256)
	ok.Hotset = &p
	m, err := NewMachine(ok)
	if err != nil {
		t.Fatal(err)
	}
	if m.Monitor().Hotset() == nil {
		t.Fatal("valid Hotset config did not attach a tracker")
	}
}

// Tenant lifecycle is host-visible state: an inactive tenant (a VM that
// died mid-run, or one that has not booted yet in an open-loop scenario)
// stops gating the epoch-window barrier, so planner epochs keep closing
// for the survivors instead of stalling forever; reactivating it makes the
// barrier wait for it again. This is the host-level hook internal/loadgen's
// churn scenario drives.
func TestHostTenantLifecycleWindows(t *testing.T) {
	const epochOps = 8
	const span = 24
	mc := MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}
	specs := []TenantSpec{{ID: "a", VM: mc}, {ID: "b", VM: mc}, {ID: "dead", VM: mc}}
	h, err := NewHost(HostConfig{
		Tenants: specs, TotalLocalPages: 48, Seed: 1,
		Planner: PlannerArbiter, EpochOps: epochOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	guests := h.Tenants()
	dead := guests[2]
	segs := make([]uint64, len(specs))
	for i, g := range guests {
		seg, err := g.Machine().Alloc("ws", span*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg.Addr(0)
	}

	for _, ts := range h.Stats().Tenants {
		if !ts.Active {
			t.Fatalf("tenant %s not active at boot", ts.ID)
		}
	}

	// drive issues exactly one window's worth of ops for the given tenants.
	drive := func(idxs ...int) {
		for op := 0; op < epochOps; op++ {
			for _, i := range idxs {
				addr := segs[i] + uint64(op%span)*PageSize
				if _, err := guests[i].Touch(addr, op%3 == 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	epochs := func() uint64 { return h.Stats().Arbiter.Epochs }

	drive(0, 1, 2)
	if got := epochs(); got != 1 {
		t.Fatalf("epochs after a full window = %d, want 1", got)
	}

	// Mid-run death: the survivors' windows must keep closing.
	dead.SetActive(false)
	if dead.Active() {
		t.Fatal("deactivated tenant reported active")
	}
	drive(0, 1)
	if got := epochs(); got != 2 {
		t.Fatalf("barrier stalled on a dead tenant: epochs = %d, want 2", got)
	}
	for _, ts := range h.Stats().Tenants {
		if want := ts.ID != "dead"; ts.Active != want {
			t.Fatalf("tenant %s Active = %v, want %v", ts.ID, ts.Active, want)
		}
	}

	// Reactivation (the late-boot analogue): the barrier waits for it again.
	dead.SetActive(true)
	drive(0, 1)
	if got := epochs(); got != 2 {
		t.Fatalf("epoch closed without the rebooted tenant: epochs = %d, want 2", got)
	}
	drive(2)
	if got := epochs(); got != 3 {
		t.Fatalf("epochs after the rebooted tenant crossed = %d, want 3", got)
	}
}

// driveHost runs rounds of exactly epochOps operations per VM, with the
// given within-round schedule. Each VM's op stream is a fixed cyclic walk
// over its own page set, so the logical per-VM histories are identical no
// matter the schedule or worker count.
type hostSchedule func(t *testing.T, h *Host, round int, epochOps int, walk func(t *testing.T, h *Host, vmIdx, op int))

func roundRobin(t *testing.T, h *Host, round, epochOps int, walk func(*testing.T, *Host, int, int)) {
	n := len(h.Tenants())
	for op := 0; op < epochOps; op++ {
		for i := 0; i < n; i++ {
			walk(t, h, i, round*epochOps+op)
		}
	}
}

func blocked(t *testing.T, h *Host, round, epochOps int, walk func(*testing.T, *Host, int, int)) {
	for i := 0; i < len(h.Tenants()); i++ {
		for op := 0; op < epochOps; op++ {
			walk(t, h, i, round*epochOps+op)
		}
	}
}

func blockedReversed(t *testing.T, h *Host, round, epochOps int, walk func(*testing.T, *Host, int, int)) {
	for i := len(h.Tenants()) - 1; i >= 0; i-- {
		for op := 0; op < epochOps; op++ {
			walk(t, h, i, round*epochOps+op)
		}
	}
}

// skewedHostRun builds a 2-VM host (one VM cycling a working set 3x its
// share, one fitting comfortably), drives it for `rounds` epochs under the
// schedule, and returns the host.
func skewedHostRun(t *testing.T, workers int, withArbiter, traced bool, sched hostSchedule) *Host {
	t.Helper()
	const totalPages, epochOps, rounds = 64, 200, 6
	specs := hostTenants(2)
	if workers > 1 {
		for i := range specs {
			// The override replaces the whole monitor config, so it must
			// start from the full default (NewMachine fills Store/capacity).
			mc := core.DefaultConfig(nil, 0)
			mc.Workers = workers
			specs[i].VM.Monitor = &mc
		}
	}
	if traced {
		for i := range specs {
			specs[i].VM.Tracer = NewTracer(false)
		}
	}
	cfg := HostConfig{Tenants: specs, TotalLocalPages: totalPages, Seed: 42}
	if withArbiter {
		cfg.Planner, cfg.EpochOps = PlannerArbiter, epochOps
	}
	if traced {
		cfg.Tracer = NewTracer(false)
	}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// vm0 cycles 40 pages (just past its 32-page split: every access misses
	// under LRU and re-references at ghost depth 8 — a steep curve the
	// arbiter can close); vm1 cycles 8 pages (fits: flat curve).
	guests := h.Tenants()
	segs := make([]uint64, len(guests))
	spans := []int{40, 8}
	for i, g := range guests {
		seg, err := g.Machine().Alloc("ws", uint64(spans[i])*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg.Addr(0)
	}
	walk := func(t *testing.T, h *Host, vmIdx, op int) {
		t.Helper()
		addr := segs[vmIdx] + uint64(op%spans[vmIdx])*PageSize
		if _, err := guests[vmIdx].Touch(addr, op%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		sched(t, h, r, epochOps, walk)
	}
	return h
}

// The arbiter must move pages from the flat-curve VM to the steep one,
// conserving the budget and keeping the floor.
func TestHostArbiterShiftsPagesToHotVM(t *testing.T) {
	h := skewedHostRun(t, 1, true, false, roundRobin)
	st := h.Stats()
	if st.Arbiter.Epochs == 0 || st.Arbiter.Moves == 0 {
		t.Fatalf("arbiter never acted: %+v", st.Arbiter)
	}
	hot, cold := st.Tenants[0], st.Tenants[1]
	if hot.SharePages <= 32 {
		t.Fatalf("hot VM share %d did not grow past the equal split", hot.SharePages)
	}
	if cold.SharePages >= 32 {
		t.Fatalf("cold VM share %d did not shrink", cold.SharePages)
	}
	if total := hot.SharePages + cold.SharePages; total != 64 {
		t.Fatalf("budget not conserved: %d", total)
	}
	if st.Arbiter.GrantedPages != st.Arbiter.DonatedPages {
		t.Fatalf("grant/donate flow unbalanced: %+v", st.Arbiter)
	}
	if st.Arbiter.PredictedSavings == 0 {
		t.Fatal("moves with no predicted savings")
	}
	if hot.WSSPages <= cold.WSSPages {
		t.Fatalf("WSS estimates do not reflect the skew: %d vs %d", hot.WSSPages, cold.WSSPages)
	}
}

// hostDecisionDigest captures everything the arbiter decided plus the
// logical state it decided from: per-VM shares, hotset digests, and the
// epoch counters.
func hostDecisionDigest(h *Host) []uint64 {
	st := h.Stats()
	var out []uint64
	for i, g := range h.Tenants() {
		ts := st.Tenants[i]
		out = append(out, uint64(ts.SharePages), uint64(ts.WSSPages),
			g.Machine().Monitor().Hotset().Digest(),
			ts.VM.Monitor.Faults, ts.VM.Monitor.Evictions)
	}
	out = append(out, st.Arbiter.Epochs, st.Arbiter.Moves,
		st.Arbiter.GrantedPages, st.Arbiter.PredictedSavings, st.Arbiter.RealizedSavings)
	return out
}

// Same seed, different fault-pipeline widths: per-VM WSS estimates and every
// arbiter decision must be identical — worker parallelism is timing-only.
func TestHostWorkerCountInvariance(t *testing.T) {
	ref := hostDecisionDigest(skewedHostRun(t, 1, true, false, roundRobin))
	for _, workers := range []int{2, 4, 8} {
		got := hostDecisionDigest(skewedHostRun(t, workers, true, false, roundRobin))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged:\n got %v\nwant %v", workers, got, ref)
		}
	}
}

// Same per-VM op streams, different within-round interleavings: arbiter
// decisions must be identical — snapshots are captured as each VM crosses
// its own op boundary, never at a shared wall-clock instant.
func TestHostInterleavingInvariance(t *testing.T) {
	ref := hostDecisionDigest(skewedHostRun(t, 2, true, false, roundRobin))
	for name, sched := range map[string]hostSchedule{
		"blocked":          blocked,
		"blocked_reversed": blockedReversed,
	} {
		got := hostDecisionDigest(skewedHostRun(t, 2, true, false, sched))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("schedule %s diverged:\n got %v\nwant %v", name, got, ref)
		}
	}
}

// Tracing a multi-VM run is pure observation: virtual clocks, shares, and
// every counter must be bit-identical to the untraced run.
func TestHostTracedBitIdentical(t *testing.T) {
	plain := skewedHostRun(t, 2, true, false, roundRobin)
	traced := skewedHostRun(t, 2, true, true, roundRobin)
	if plain.Now() != traced.Now() {
		t.Fatalf("tracing moved the host clock: %v != %v", plain.Now(), traced.Now())
	}
	for i, p := range plain.Tenants() {
		pm, tm := p.Machine(), traced.Tenants()[i].Machine()
		if pn, tn := pm.Now(), tm.Now(); pn != tn {
			t.Fatalf("vm%d clock diverged under tracing: %v != %v", i, pn, tn)
		}
		ps, ts := pm.Stats(), tm.Stats()
		if *ps.Monitor != *ts.Monitor {
			t.Fatalf("vm%d monitor counters diverged: %+v != %+v", i, ps.Monitor, ts.Monitor)
		}
	}
	if !reflect.DeepEqual(hostDecisionDigest(plain), hostDecisionDigest(traced)) {
		t.Fatal("tracing changed arbiter decisions")
	}
}

// Without an arbiter the split stays static and NoteOp is free.
func TestHostStaticSplitStaysPut(t *testing.T) {
	h := skewedHostRun(t, 1, false, false, roundRobin)
	st := h.Stats()
	if a, b := st.Tenants[0].SharePages, st.Tenants[1].SharePages; a != 32 || b != 32 {
		t.Fatalf("static split moved: %d/%d", a, b)
	}
	if st.Arbiter.Epochs != 0 {
		t.Fatalf("arbiter ran without being configured: %+v", st.Arbiter)
	}
}

// TenantStats carries each tenant's fault count and fault cost, and the
// monitor's one fault-latency sink slot stays the caller's: a sink installed
// on a host tenant sees every fault, and its count and sum are the row's
// Faults and FaultCost bit for bit.
func TestHostTenantFaultCostMatchesSink(t *testing.T) {
	const epochOps, rounds = 100, 4
	h, err := NewHost(HostConfig{
		Tenants: hostTenants(2), TotalLocalPages: 64, Seed: 42,
		Planner: PlannerArbiter, EpochOps: epochOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	guests := h.Tenants()
	spans := []int{40, 8}
	segs := make([]uint64, len(guests))
	counts := make([]uint64, len(guests))
	sums := make([]time.Duration, len(guests))
	for i, g := range guests {
		seg, err := g.Machine().Alloc("ws", uint64(spans[i])*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg.Addr(0)
		g.Machine().Monitor().SetFaultLatencySink(func(d time.Duration) {
			counts[i]++
			sums[i] += d
		})
	}
	for op := 0; op < rounds*epochOps; op++ {
		for i, g := range guests {
			if _, err := g.Touch(segs[i]+uint64(op%spans[i])*PageSize, op%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := h.Stats()
	if st.Arbiter.Moves == 0 {
		t.Fatal("arbiter never resized a tenant; the run does not cover planner epochs")
	}
	for i, ts := range st.Tenants {
		if ts.Faults == 0 {
			t.Fatalf("tenant %s never faulted", ts.ID)
		}
		if ts.Faults != counts[i] || ts.FaultCost != sums[i] {
			t.Errorf("tenant %s: row says %d faults costing %v, its sink saw %d costing %v",
				ts.ID, ts.Faults, ts.FaultCost, counts[i], sums[i])
		}
	}
}

// Tenants share one store but must never share pages: full isolation via
// distinct partitions, even with a shared registry.
func TestHostTenantsIsolated(t *testing.T) {
	h, err := NewHost(HostConfig{Tenants: hostTenants(2), TotalLocalPages: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]*Machine, 2)
	addrs := make([]uint64, 2)
	for i := 0; i < 2; i++ {
		segs[i] = h.Tenants()[i].Machine()
		seg, err := segs[i].Alloc("data", 32*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = seg.Addr(0)
	}
	// Same guest-physical addresses, different tenants, different values —
	// cycle past the 8-page share so both evict through the shared store.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2; i++ {
			for p := 0; p < 32; p++ {
				a := addrs[i] + uint64(p)*PageSize
				if pass == 0 {
					if err := segs[i].Write64(a, uint64(i+1)*1000+uint64(p)); err != nil {
						t.Fatal(err)
					}
				} else {
					v, err := segs[i].Read64(a)
					if err != nil {
						t.Fatal(err)
					}
					if v != uint64(i+1)*1000+uint64(p) {
						t.Fatalf("vm%d page %d = %d: tenant data bled through the shared store", i, p, v)
					}
				}
			}
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
}

// The refusal is stable and side-effect-free: the swap machine's footprint
// is untouched after the rejected resize, and the error points the operator
// at the balloon.
func TestResizeRefusalLeavesSwapUntouched(t *testing.T) {
	m := newSwapMachine(t, SwapNVMeoF, 4, 32, true)
	before := m.ResidentPages()
	err := m.ResizeFootprint(before / 2)
	if err == nil {
		t.Fatal("swap machine allowed footprint resize")
	}
	if !strings.Contains(err.Error(), "balloon") {
		t.Fatalf("refusal does not mention the balloon escape hatch: %v", err)
	}
	if m.ResidentPages() != before {
		t.Fatalf("rejected resize changed the footprint: %d != %d", m.ResidentPages(), before)
	}
}
