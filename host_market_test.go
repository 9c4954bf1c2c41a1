package fluidmem

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/dram"
)

// marketTenants builds the adversarial pair the marketplace exists for: an
// SLO-less adversary cycling a working set larger than the whole host
// budget (a curve that stays steep no matter how much it is granted, so it
// bids forever) and a victim with a tight p99 SLO whose small working set
// fits its split (flat curve, donates — until donation makes it fault and
// blow its target, at which point the market must make it whole).
func marketTenants(workers int) []TenantSpec {
	specs := []TenantSpec{
		{ID: "adv", VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}},
		{ID: "victim", VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20},
			Policy: TenantPolicy{SLO: time.Microsecond}},
	}
	if workers > 1 {
		for i := range specs {
			// The override replaces the whole monitor config, so it must
			// start from the full default (NewMachine fills Store/capacity).
			mc := core.DefaultConfig(nil, 0)
			mc.Workers = workers
			specs[i].VM.Monitor = &mc
		}
	}
	return specs
}

// marketHostRun drives the adversarial pair for `rounds` epochs under the
// schedule, with the chosen planner ("market", "arbiter", or "static" —
// static still runs SLO windows via HostConfig.EpochOps).
func marketHostRun(t *testing.T, workers int, planner Planner, sched hostSchedule) *Host {
	t.Helper()
	return driveMarketHost(t, marketTenants(workers), planner, sched)
}

// driveMarketHost is marketHostRun on a given pair of tenant specs.
func driveMarketHost(t *testing.T, specs []TenantSpec, planner Planner, sched hostSchedule) *Host {
	t.Helper()
	const totalPages, epochOps, rounds = 64, 200, 8
	h, err := NewHost(HostConfig{Tenants: specs, TotalLocalPages: totalPages,
		EpochOps: epochOps, Planner: planner, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	guests := h.Tenants()
	segs := make([]uint64, len(guests))
	spans := []int{80, 8}
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

// The marketplace must grant the adversary leases from the healthy victim,
// then claw them back the moment the victim's p99 blows its target.
func TestHostMarketClawsBackFromViolatingDonor(t *testing.T) {
	h := marketHostRun(t, 1, "market", roundRobin)
	st := h.Stats()
	if st.Market == nil {
		t.Fatal("market counters absent")
	}
	if st.Market.Epochs == 0 || st.Market.SLOEnforcedEpochs == 0 {
		t.Fatalf("market never enforced an SLO: %+v", st.Market)
	}
	if st.Market.Leases == 0 || st.Market.LeasedPages == 0 {
		t.Fatalf("market never traded: %+v", st.Market)
	}
	if st.Market.Clawbacks == 0 || st.Market.ClawedPages == 0 {
		t.Fatalf("violating donor was never made whole: %+v", st.Market)
	}
	if st.Market.SLOViolations == 0 {
		t.Fatalf("victim never registered a violation: %+v", st.Market)
	}
	if total := st.Tenants[0].SharePages + st.Tenants[1].SharePages; total != 64 {
		t.Fatalf("budget not conserved: %d", total)
	}
	var victim TenantStats
	for _, ts := range st.Tenants {
		if ts.ID == "victim" {
			victim = ts
		}
	}
	if victim.SLO.Target != time.Microsecond {
		t.Fatalf("victim row = %+v", victim)
	}
	if victim.SLO.Windows == 0 || victim.SLO.Violations == 0 {
		t.Fatalf("victim SLO accounting empty: %+v", victim.SLO)
	}
	if victim.SLO.Violations >= victim.SLO.Windows {
		t.Fatalf("victim violated every window — claw-back never helped: %+v", victim.SLO)
	}
}

// The greedy arbiter is SLO-blind: same drive, pages drain to the adversary
// and stay there, so the victim misses more windows than under the market.
func TestHostMarketBeatsArbiterOnSLOMisses(t *testing.T) {
	missRate := func(h *Host) (violations, windows uint64) {
		for _, ts := range h.Stats().Tenants {
			violations += ts.SLO.Violations
			windows += ts.SLO.Windows
		}
		return
	}
	mv, mw := missRate(marketHostRun(t, 1, "market", roundRobin))
	av, aw := missRate(marketHostRun(t, 1, "arbiter", roundRobin))
	if mw == 0 || aw == 0 {
		t.Fatalf("SLO windows not evaluated: market %d, arbiter %d", mw, aw)
	}
	if float64(mv)/float64(mw) >= float64(av)/float64(aw) {
		t.Fatalf("market miss rate %d/%d not below arbiter's %d/%d", mv, mw, av, aw)
	}
}

// A planner-less host with EpochOps still runs SLO accounting — and the
// static split never moves.
func TestHostStaticSplitSLOAccounting(t *testing.T) {
	h := marketHostRun(t, 1, "static", roundRobin)
	st := h.Stats()
	if a, b := st.Tenants[0].SharePages, st.Tenants[1].SharePages; a != 32 || b != 32 {
		t.Fatalf("static split moved: %d/%d", a, b)
	}
	if st.Arbiter.Epochs != 0 || st.Market != nil {
		t.Fatalf("planner ran without being configured: %+v", st.Arbiter)
	}
	var windows uint64
	for _, ts := range st.Tenants {
		windows += ts.SLO.Windows
	}
	if windows == 0 {
		t.Fatal("static host evaluated no SLO windows")
	}
}

// A tenant's SLO window is read from its own monitor, so tracing cannot move
// it: untraced, one tracer per tenant, and one tracer shared by both tenants
// (whose merged FAULT histogram mixes their spans) must give the same SLO
// rows, shares, fault counts and host clock. The adversary has no SLO, and
// its window still reads its real faults.
func TestSLOIndependentOfTracing(t *testing.T) {
	run := func(tracer func() *Tracer) HostStats {
		specs := marketTenants(1)
		for i := range specs {
			specs[i].VM.Tracer = tracer()
		}
		return driveMarketHost(t, specs, PlannerMarket, roundRobin).Stats()
	}
	shared := NewTracer(false)
	ref := run(func() *Tracer { return nil })
	if adv := ref.Tenants[0].SLO; adv.LastFaults == 0 || adv.LastP99 == 0 {
		t.Fatalf("untraced tenant without an SLO reads an empty window: %+v", adv)
	}
	for name, st := range map[string]HostStats{
		"per-tenant": run(func() *Tracer { return NewTracer(false) }),
		"shared":     run(func() *Tracer { return shared }),
	} {
		if st.Now != ref.Now {
			t.Errorf("%s: host clock %v, untraced %v", name, st.Now, ref.Now)
		}
		for i, ts := range st.Tenants {
			want := ref.Tenants[i]
			if ts.SLO != want.SLO || ts.SharePages != want.SharePages || ts.Faults != want.Faults {
				t.Errorf("%s: tenant %s: slo %+v share %d faults %d, untraced slo %+v share %d faults %d",
					name, ts.ID, ts.SLO, ts.SharePages, ts.Faults, want.SLO, want.SharePages, want.Faults)
			}
		}
	}
}

// hostMarketDigest extends hostDecisionDigest with the market's lease-book
// digest and the per-tenant SLO counters — everything an epoch decision
// depends on or produces.
func hostMarketDigest(h *Host) []uint64 {
	out := hostDecisionDigest(h)
	if h.mkt != nil {
		out = append(out, h.mkt.Digest())
	}
	for _, g := range h.tenants {
		s := g.slo
		out = append(out, s.Windows, s.Violations, uint64(s.LastP99), s.LastFaults)
	}
	return out
}

// Same seed, different fault-pipeline widths: every market decision — and
// the SLO evaluations feeding it — must be identical. Fault-latency
// histograms merge bucket-wise across workers, so the window p99 is a pure
// function of the multiset of fault durations, which the closed-loop drive
// keeps worker-count-invariant.
func TestHostMarketWorkerCountInvariance(t *testing.T) {
	ref := hostMarketDigest(marketHostRun(t, 1, "market", roundRobin))
	for _, workers := range []int{2, 4, 8} {
		got := hostMarketDigest(marketHostRun(t, workers, "market", roundRobin))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged:\n got %v\nwant %v", workers, got, ref)
		}
	}
}

// Same per-tenant op streams, different within-round interleavings: market
// decisions must be identical — snapshots (curves AND fault histograms) are
// captured as each tenant crosses its own op boundary.
func TestHostMarketInterleavingInvariance(t *testing.T) {
	ref := hostMarketDigest(marketHostRun(t, 2, "market", roundRobin))
	for name, sched := range map[string]hostSchedule{
		"blocked":          blocked,
		"blocked_reversed": blockedReversed,
	} {
		got := hostMarketDigest(marketHostRun(t, 2, "market", sched))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("schedule %s diverged:\n got %v\nwant %v", name, got, ref)
		}
	}
}

// The tenant-centric surface: lookup by ID (an unknown ID returns no
// handle), policy echo, and the tenant's row in HostStats.
func TestHostTenantAPI(t *testing.T) {
	h, err := NewHost(HostConfig{
		Tenants: []TenantSpec{
			{ID: "a", VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}},
			{ID: "b", VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20},
				Policy: TenantPolicy{FloorPages: 4, CeilPages: 16, SLO: time.Millisecond}},
		},
		TotalLocalPages: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := h.Tenant("b")
	if !ok || b.ID() != "b" {
		t.Fatalf("Tenant(b) = %v, %v", b, ok)
	}
	if ghost, ok := h.Tenant("nope"); ok || ghost != nil {
		t.Fatalf("unknown tenant resolved: %v, %v", ghost, ok)
	}
	if got := b.Policy(); got != (TenantPolicy{FloorPages: 4, CeilPages: 16, SLO: time.Millisecond}) {
		t.Fatalf("policy = %+v", got)
	}
	if all := h.Tenants(); len(all) != 2 || all[0].ID() != "a" || all[1].ID() != "b" {
		t.Fatalf("Tenants() = %v", all)
	}
	seg, err := b.Machine().Alloc("d", 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Touch(seg.Addr(0), true); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats(); got.VM.ResidentPages == 0 || got.Faults == 0 || got.FaultCost <= 0 {
		t.Fatalf("tenant stats empty: %+v", got)
	}
	st := h.Stats()
	if len(st.Tenants) != 2 || st.Tenants[1].ID != "b" || st.Tenants[1].Policy.CeilPages != 16 {
		t.Fatalf("HostStats.Tenants = %+v", st.Tenants)
	}
	if !reflect.DeepEqual(st.Tenants[1], b.Stats()) {
		t.Fatalf("HostStats row and Tenant.Stats disagree:\n%+v\n%+v", st.Tenants[1], b.Stats())
	}
}

func TestNewHostTenantValidation(t *testing.T) {
	vm := MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}
	// with returns tenants a (vm as is) and b (vm edited by set).
	with := func(set func(*MachineConfig)) []TenantSpec {
		other := vm
		set(&other)
		return []TenantSpec{{ID: "a", VM: vm}, {ID: "b", VM: other}}
	}
	cases := []struct {
		name string
		cfg  HostConfig
		// want are substrings the error must carry (tenant and field).
		want []string
	}{
		{"empty ID", HostConfig{
			Tenants: []TenantSpec{{VM: vm}}, TotalLocalPages: 16}, nil},
		{"duplicate ID", HostConfig{
			Tenants: []TenantSpec{{ID: "a", VM: vm}, {ID: "a", VM: vm}}, TotalLocalPages: 16}, nil},
		{"floor above ceiling", HostConfig{
			Tenants:         []TenantSpec{{ID: "a", VM: vm, Policy: TenantPolicy{FloorPages: 8, CeilPages: 4}}},
			TotalLocalPages: 16}, nil},
		{"negative SLO", HostConfig{
			Tenants:         []TenantSpec{{ID: "a", VM: vm, Policy: TenantPolicy{SLO: -1}}},
			TotalLocalPages: 16}, nil},

		// A host has one store, described by tenant 0: a later tenant that
		// describes another one is refused, not silently given tenant 0's.
		{"other backend", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.Backend = BackendMemcached })},
			[]string{`"b"`, "Backend"}},
		{"unknown backend", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.Backend = "nonsense" })},
			[]string{`"b"`, "Backend"}},
		{"other capacity", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.StoreCapacity = 1 << 30 })},
			[]string{`"b"`, "StoreCapacity"}},
		{"other node count", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.StoreNodes = 5 })},
			[]string{`"b"`, "StoreNodes"}},
		{"other replica count", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.StoreReplicas = 3 })},
			[]string{`"b"`, "StoreReplicas"}},
		{"other shared store", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.SharedStore = dram.New(dram.DefaultParams(), 1) })},
			[]string{`"b"`, "SharedStore"}},
		{"other registry", HostConfig{TotalLocalPages: 16,
			Tenants: with(func(mc *MachineConfig) { mc.Registry = kvstore.NewLocalRegistry() })},
			[]string{`"b"`, "Registry"}},
	}
	for _, c := range cases {
		_, err := NewHost(c.cfg)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.name, err, w)
			}
		}
	}

	// Leaving the store fields unset, or repeating tenant 0's, is fine.
	same := with(func(mc *MachineConfig) { mc.Backend, mc.StoreCapacity = "", 0 })
	if _, err := NewHost(HostConfig{Tenants: same, TotalLocalPages: 16}); err != nil {
		t.Errorf("tenant leaving the store to the host refused: %v", err)
	}
}

// A BackendCluster host builds the pool its tenant 0 describes and keeps it
// reachable from every tenant's machine (membership changes, failure
// injection).
func TestHostClusterPoolReachable(t *testing.T) {
	vm := MachineConfig{Backend: BackendCluster, StoreNodes: 5, StoreReplicas: 3, GuestMemory: 4 << 20}
	h, err := NewHost(HostConfig{
		Tenants:         []TenantSpec{{ID: "a", VM: vm}, {ID: "b", VM: vm}},
		TotalLocalPages: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first *cluster.Pool
	for _, g := range h.Tenants() {
		pool := g.Machine().ClusterPool()
		if pool == nil {
			t.Fatalf("tenant %s: cluster pool not reachable from its machine", g.ID())
		}
		if first == nil {
			first = pool
		}
		if pool != first {
			t.Fatalf("tenant %s has its own pool; a host has one store", g.ID())
		}
	}
	table := first.Committed()
	if got := len(table.Nodes); got != 5 {
		t.Errorf("pool has %d nodes, want 5", got)
	}
	if table.Replicas != 3 {
		t.Errorf("pool replicates %d ways, want 3", table.Replicas)
	}
}

// A marketplace host over a cluster pool that loses a node mid-run. The
// adversary's working set outgrows the whole budget, so no split stops it
// thrashing, and its store traffic runs through the crash: reads fail over to
// the surviving replica and writes go partial until Recover re-replicates.
// Above the pool the planner must not notice — every Touch returns data,
// every epoch closes the victim's SLO window, and the shares always sum to
// the budget.
func TestHostMarketSurvivesClusterNodeCrash(t *testing.T) {
	const totalPages, epochOps, rounds = 64, 200, 12
	// The resilience policy retries the stale-epoch rejections a committed
	// membership change sends the data path, as fluidmemd's does.
	mon := core.DefaultConfig(nil, 0)
	policy := resilience.DefaultPolicy()
	mon.Resilience = &policy
	specs := marketTenants(1)
	for i := range specs {
		specs[i].VM.Backend, specs[i].VM.Monitor = BackendCluster, &mon
	}
	h, err := NewHost(HostConfig{Tenants: specs, TotalLocalPages: totalPages, EpochOps: epochOps, Planner: PlannerMarket, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	guests := h.Tenants()
	spans := []int{80, 8}
	segs := make([]uint64, len(guests))
	for i, g := range guests {
		seg, err := g.Machine().Alloc("ws", uint64(spans[i])*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg.Addr(0)
	}
	// Crash the node holding the adversary's preferred copies.
	adv := guests[0].Machine()
	pool := adv.ClusterPool()
	part, ok := adv.Monitor().Partition(adv.VM().Config().PID)
	if !ok {
		t.Fatal("adversary has no partition")
	}
	table := pool.Committed()
	var victimNode string
	for _, n := range table.Nodes {
		if n.Slot == table.Assign(part)[0] {
			victimNode = n.Name
		}
	}

	for r := 0; r < rounds; r++ {
		switch r {
		case rounds / 3:
			if err := pool.Crash(h.Now(), victimNode); err != nil {
				t.Fatal(err)
			}
		case 2 * rounds / 3:
			_, copied, err := pool.Recover(h.Now())
			if err != nil {
				t.Fatal(err)
			}
			if copied == 0 {
				t.Fatalf("Recover after crashing %s restored no copies", victimNode)
			}
		}
		for op := r * epochOps; op < (r+1)*epochOps; op++ {
			for i, g := range guests {
				if _, err := g.Touch(segs[i]+uint64(op%spans[i])*PageSize, op%3 == 0); err != nil {
					t.Fatalf("round %d: %s: %v", r, g.ID(), err)
				}
			}
		}
		st := h.Stats()
		sum := 0
		for _, ts := range st.Tenants {
			sum += ts.SharePages
		}
		if sum != totalPages {
			t.Fatalf("round %d: shares sum to %d, budget %d", r, sum, totalPages)
		}
		if got := st.Tenants[1].SLO.Windows; got != uint64(r+1) {
			t.Fatalf("round %d: victim closed %d SLO windows, want %d", r, got, r+1)
		}
	}
	if st := h.Stats(); st.Market.Epochs != rounds || st.Market.Leases == 0 {
		t.Fatalf("market stalled over the crash: %+v", st.Market)
	}
	if c := pool.ClusterStats(); c.Failovers == 0 || c.Rereplicated == 0 {
		t.Fatalf("the crash never reached the data path: %+v", c)
	}
}
