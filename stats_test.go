package fluidmem

import (
	"bytes"
	"strings"
	"testing"

	"fluidmem/internal/core"
	"fluidmem/internal/trace"
)

// A machine-level Tracer must survive a Monitor override that does not set
// its own Trace, and an override that does must win — the documented merge
// precedence (Host relies on it for SLO tenants).
func TestMonitorOverrideMergesConveniences(t *testing.T) {
	tr := NewTracer(false)
	mon := core.DefaultConfig(nil, 0) // Store/LRUCapacity filled by NewMachine
	m, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		Backend:     BackendDRAM,
		LocalMemory: 1 << 20,
		GuestMemory: 8 << 20,
		Monitor:     &mon,
		Tracer:      tr,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Monitor().Tracer() != tr {
		t.Error("Monitor override silently discarded Tracer")
	}

	// An explicit override field wins over the machine-level convenience.
	own := core.DefaultConfig(nil, 0)
	ownTr := trace.New(false)
	own.Trace = ownTr
	m2, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		Backend:     BackendDRAM,
		LocalMemory: 1 << 20,
		GuestMemory: 8 << 20,
		Monitor:     &own,
		Tracer:      NewTracer(false),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Monitor().Tracer() != ownTr {
		t.Error("machine-level Tracer overrode the Monitor config's own Trace")
	}
}

// Stats() must aggregate every layer behind one call, and the deprecated
// shims must agree with it.
func TestPublicStatsSnapshot(t *testing.T) {
	tr := NewTracer(true)
	m, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		Backend:     BackendDRAM,
		LocalMemory: 1 << 20,
		GuestMemory: 8 << 20,
		Tracer:      tr,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := m.Alloc("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seg.Pages(); i++ {
		if err := m.Write64(seg.Addr(uint64(i)*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Now != m.Now() {
		t.Errorf("Stats().Now = %v, want %v", st.Now, m.Now())
	}
	if st.Monitor == nil || st.Writeback == nil || st.Store == nil {
		t.Fatalf("Stats() missing layers: %+v", st)
	}
	if st.Monitor.Faults == 0 || st.Monitor.Evictions == 0 {
		t.Errorf("implausible monitor counters: %+v", *st.Monitor)
	}
	if *st.Monitor != m.Monitor().Stats() {
		t.Error("Stats().Monitor disagrees with the monitor's own counters")
	}
	if st.Writeback.Flushes != m.Monitor().WritebackStats().Flushes {
		t.Error("Stats().Writeback disagrees with the writeback engine's counters")
	}
	if st.Store.Puts == 0 {
		t.Error("Stats().Store recorded no store writes after evictions")
	}
	if st.Resilience != nil || st.Health != nil || st.Compress != nil {
		t.Error("disabled subsystems should be nil in the snapshot")
	}
	if st.FootprintLimit != m.Monitor().FootprintLimit() || st.Workers != 1 {
		t.Errorf("footprint/workers wrong: %+v", st)
	}

	// The tracer fed the snapshot: a FAULT phase row with percentiles must
	// be present, and the merged row must come first for its phase.
	var fault *PhaseLatency
	for i := range st.Phases {
		if st.Phases[i].Phase == trace.EvFault {
			fault = &st.Phases[i]
			break
		}
	}
	if fault == nil {
		t.Fatal("no FAULT phase row in Stats().Phases")
	}
	if fault.Worker != trace.MergedWorker || fault.Count == 0 || fault.P50 <= 0 || fault.P99 > fault.Max {
		t.Errorf("implausible FAULT row: %+v", *fault)
	}

	// WriteTrace round trip: a chrome trace with FAULT events.
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"FAULT"`) {
		t.Error("WriteTrace output has no FAULT events")
	}
}

// In ModeSwap the snapshot carries only machine-level fields.
func TestPublicStatsSwapMode(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Mode:        ModeSwap,
		LocalMemory: 1 << 20,
		GuestMemory: 8 << 20,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Monitor != nil || st.Writeback != nil || st.Store != nil || st.Phases != nil {
		t.Errorf("swap-mode snapshot should have nil monitor layers: %+v", st)
	}
	if st.ResidentPages != m.ResidentPages() {
		t.Error("swap-mode snapshot lost ResidentPages")
	}
}

// Tracing must not perturb the simulation: same seed with and without a
// tracer gives identical virtual time and counters.
func TestTracingIsPureObservation(t *testing.T) {
	run := func(tr *Tracer) (Stats, *Machine) {
		m, err := NewMachine(MachineConfig{
			Mode:        ModeFluidMem,
			Backend:     BackendRAMCloud,
			LocalMemory: 1 << 20,
			GuestMemory: 8 << 20,
			Tracer:      tr,
			Seed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := m.Alloc("heap", 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < seg.Pages(); i++ {
				if err := m.Write64(seg.Addr(uint64(i)*PageSize), uint64(i)+3); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.Stats(), m
	}
	plain, _ := run(nil)
	traced, _ := run(NewTracer(true))
	if plain.Now != traced.Now {
		t.Errorf("tracing changed virtual time: %v vs %v", plain.Now, traced.Now)
	}
	if *plain.Monitor != *traced.Monitor {
		t.Errorf("tracing changed monitor counters:\n%+v\n%+v", *plain.Monitor, *traced.Monitor)
	}
	if *plain.Store != *traced.Store {
		t.Errorf("tracing changed store traffic:\n%+v\n%+v", *plain.Store, *traced.Store)
	}
}
