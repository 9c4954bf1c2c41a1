package core

import (
	"testing"
	"time"

	"fluidmem/internal/hotset"
)

// hotsetCfg attaches a tracker sized for the capacity to a DRAM config.
func hotsetCfg(t *testing.T, capacity int) (Config, *hotset.Tracker) {
	t.Helper()
	cfg := dramCfg(capacity)
	hs, err := hotset.New(hotset.Params{GhostCapacity: 64, BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hotset = hs
	return cfg, hs
}

// touchAll walks pages [0, n) once, returning the final virtual time.
func touchAll(t *testing.T, m *Monitor, now time.Duration, n int) time.Duration {
	t.Helper()
	for i := 0; i < n; i++ {
		var err error
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// A working set larger than the resident budget cycles pages through the
// ghost list; re-walking it must register ghost hits, and the WSS estimate
// must rise to cover the true working set.
func TestHotsetObservesFaultsAndEvictions(t *testing.T) {
	const capacity, pages = 4, 12
	cfg, hs := hotsetCfg(t, capacity)
	m := newMonitor(t, cfg, 64)

	now := touchAll(t, m, 0, pages) // cold pass: fills, then churns, the LRU
	s := hs.Snapshot()
	if s.GhostHits != 0 {
		t.Fatalf("cold pass produced ghost hits: %+v", s)
	}
	if s.Evictions == 0 || s.GhostLen == 0 {
		t.Fatalf("evictions did not reach the tracker: %+v", s)
	}

	touchAll(t, m, now, pages) // warm pass: every fault hits the ghost list
	s = hs.Snapshot()
	if s.GhostHits == 0 {
		t.Fatalf("warm pass produced no ghost hits: %+v", s)
	}
	if s.Faults != m.Stats().Faults {
		t.Fatalf("tracker saw %d faults, monitor handled %d", s.Faults, m.Stats().Faults)
	}
	wss := s.WSSEstimate(capacity, 90)
	if wss <= capacity || wss > pages {
		t.Fatalf("WSS estimate %d outside (capacity=%d, pages=%d]", wss, capacity, pages)
	}
}

// Balloon Discard must remove the page from BOTH the resident and ghost
// lists: a ballooned-out page's next touch is a fresh first touch, not a
// re-reference, so it must not count as a ghost hit or move the WSS estimate.
func TestBalloonDiscardLeavesGhostList(t *testing.T) {
	const capacity, pages = 4, 8
	cfg, hs := hotsetCfg(t, capacity)
	m := newMonitor(t, cfg, 64)

	now := touchAll(t, m, 0, pages)
	// addr(0) was evicted during the walk and now shadows in the ghost list.
	if !hs.Contains(addr(0)) {
		t.Fatal("test premise broken: evicted page not shadowed")
	}
	m.Discard(addr(0))
	if hs.Contains(addr(0)) {
		t.Fatal("balloon discard left the page in the ghost list")
	}
	// A resident page must leave both lists too.
	resident := addr(pages - 1)
	if hs.Contains(resident) {
		t.Fatal("test premise broken: resident page shadowed")
	}
	m.Discard(resident)
	if hs.Contains(resident) {
		t.Fatal("discarded resident page entered/stayed in the ghost list")
	}

	before := hs.Snapshot()
	if _, _, err := m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	after := hs.Snapshot()
	if after.GhostHits != before.GhostHits {
		t.Fatal("re-touch of a ballooned-out page counted as a ghost hit")
	}
	if got, want := after.WSSEstimate(capacity, 90), before.WSSEstimate(capacity, 90); got != want {
		t.Fatalf("discard skewed the WSS estimate: %d != %d", got, want)
	}
}

// VM teardown forgets every page of the pid, shadowed or resident.
func TestUnregisterVMClearsGhostList(t *testing.T) {
	const capacity, pages = 4, 8
	cfg, hs := hotsetCfg(t, capacity)
	m := newMonitor(t, cfg, 64)
	now := touchAll(t, m, 0, pages)
	if hs.Len() == 0 {
		t.Fatal("test premise broken: nothing shadowed before teardown")
	}
	if _, err := m.UnregisterVM(now, 4242); err != nil {
		t.Fatal(err)
	}
	if hs.Len() != 0 {
		t.Fatalf("teardown left %d pages shadowed", hs.Len())
	}
}

// An export forgets every page of the VM, shadowed or resident, as teardown
// does, and the pages it evicts leave with the VM: they shadow nothing.
func TestExportLeavesNoGhostEntries(t *testing.T) {
	const capacity, pages = 4, 12
	cfg, hs := hotsetCfg(t, capacity)
	m := newMonitor(t, cfg, 64)
	now := touchAll(t, m, 0, pages)
	if hs.Len() != pages-capacity {
		t.Fatalf("test premise broken: %d pages shadowed before the export, want %d", hs.Len(), pages-capacity)
	}
	evictions := hs.Snapshot().Evictions
	if _, _, err := m.ExportVM(now, 4242); err != nil {
		t.Fatal(err)
	}
	if hs.Len() != 0 {
		t.Fatalf("export left %d pages shadowed", hs.Len())
	}
	if n := hs.Snapshot().Evictions - evictions; n != 0 {
		t.Fatalf("the export's %d evictions entered the ghost list", n)
	}
}

// Attaching a tracker is pure observation: the simulated timeline must be
// bit-identical with and without it.
func TestHotsetIsPureObservation(t *testing.T) {
	run := func(attach bool) (time.Duration, Stats) {
		cfg := dramCfg(4)
		if attach {
			hs, err := hotset.New(hotset.DefaultParams(4))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Hotset = hs
		}
		m := newMonitor(t, cfg, 64)
		now := touchAll(t, m, 0, 12)
		now = touchAll(t, m, now, 12)
		done, err := m.Drain(now)
		if err != nil {
			t.Fatal(err)
		}
		return done, m.Stats()
	}
	tOn, sOn := run(true)
	tOff, sOff := run(false)
	if tOn != tOff {
		t.Fatalf("tracker changed virtual time: %v != %v", tOn, tOff)
	}
	if sOn != sOff {
		t.Fatalf("tracker changed stats: %+v != %+v", sOn, sOff)
	}
}
