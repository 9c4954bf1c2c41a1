package fluidmem

import (
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/core"
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
func marketHostRun(t *testing.T, workers int, planner string, sched hostSchedule) *Host {
	t.Helper()
	const totalPages, epochOps, rounds = 64, 200, 8
	cfg := HostConfig{Tenants: marketTenants(workers), TotalLocalPages: totalPages, Seed: 42}
	switch planner {
	case "market":
		cfg.Market = &MarketConfig{EpochOps: epochOps}
	case "arbiter":
		cfg.Arbiter = &ArbiterConfig{EpochOps: epochOps}
	case "static":
		cfg.EpochOps = epochOps
	default:
		t.Fatalf("unknown planner %q", planner)
	}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]uint64, h.VMs())
	spans := []int{80, 8}
	for i := 0; i < h.VMs(); i++ {
		seg, err := h.Machine(i).Alloc("ws", uint64(spans[i])*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg.Addr(0)
	}
	walk := func(t *testing.T, h *Host, vmIdx, op int) {
		t.Helper()
		addr := segs[vmIdx] + uint64(op%spans[vmIdx])*PageSize
		if _, err := h.Touch(vmIdx, addr, op%3 == 0); err != nil {
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
	if total := st.Shares[0] + st.Shares[1]; total != 64 {
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
	if st.Shares[0] != 32 || st.Shares[1] != 32 {
		t.Fatalf("static split moved: %v", st.Shares)
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

// hostMarketDigest extends hostDecisionDigest with the market's lease-book
// digest and the per-tenant SLO counters — everything an epoch decision
// depends on or produces.
func hostMarketDigest(h *Host) []uint64 {
	out := hostDecisionDigest(h)
	if h.mkt != nil {
		out = append(out, h.mkt.Digest())
	}
	for _, s := range h.slo {
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

// The tenant-centric surface: lookup by ID, policy echo, and the index
// methods as wrappers over the same machines.
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
	if _, ok := h.Tenant("nope"); ok {
		t.Fatal("unknown tenant resolved")
	}
	if got := b.Policy(); got != (TenantPolicy{FloorPages: 4, CeilPages: 16, SLO: time.Millisecond}) {
		t.Fatalf("policy = %+v", got)
	}
	if b.Machine() != h.Machine(1) {
		t.Fatal("index wrapper and tenant handle disagree on the machine")
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
	if got := b.Stats(); got.ResidentPages == 0 {
		t.Fatalf("tenant stats empty: %+v", got)
	}
	st := h.Stats()
	if len(st.Tenants) != 2 || st.Tenants[1].ID != "b" || st.Tenants[1].Policy.CeilPages != 16 {
		t.Fatalf("HostStats.Tenants = %+v", st.Tenants)
	}
}

func TestNewHostTenantValidation(t *testing.T) {
	vm := MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}
	cases := []struct {
		name string
		cfg  HostConfig
	}{
		{"empty ID", HostConfig{
			Tenants: []TenantSpec{{VM: vm}}, TotalLocalPages: 16}},
		{"duplicate ID", HostConfig{
			Tenants: []TenantSpec{{ID: "a", VM: vm}, {ID: "a", VM: vm}}, TotalLocalPages: 16}},
		{"floor above ceiling", HostConfig{
			Tenants:         []TenantSpec{{ID: "a", VM: vm, Policy: TenantPolicy{FloorPages: 8, CeilPages: 4}}},
			TotalLocalPages: 16}},
		{"negative SLO", HostConfig{
			Tenants:         []TenantSpec{{ID: "a", VM: vm, Policy: TenantPolicy{SLO: -1}}},
			TotalLocalPages: 16}},
		{"two planners", HostConfig{
			Tenants: []TenantSpec{{ID: "a", VM: vm}}, TotalLocalPages: 16,
			Arbiter: &ArbiterConfig{}, Market: &MarketConfig{}}},
		{"bad market policy", HostConfig{
			Tenants: []TenantSpec{{ID: "a", VM: vm}}, TotalLocalPages: 16,
			Market: &MarketConfig{Policy: MarketPolicy{FloorPages: -1, Step: 1}}}},
	}
	for _, c := range cases {
		if _, err := NewHost(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
