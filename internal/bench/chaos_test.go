package bench

import (
	"testing"
	"time"
)

// A chaos row summarises its measured window only, as Table II and the
// cluster rows do: the populate pass's first-touch faults stay out of its
// mean. The monitor's own running fault cost, read at the window's edges on a
// twin of the rate-0 row's machine, fixes what that mean must be.
func TestChaosRowExcludesPopulate(t *testing.T) {
	const faults, seed = 1000, 1
	row, err := runChaosRow(0, faults, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, _, _, err := newChaosMachine(0, seed)
	if err != nil {
		t.Fatal(err)
	}
	seg, pages, err := populate(m, windowWSSBytes)
	if err != nil {
		t.Fatal(err)
	}
	mon := m.Monitor()
	cost, before := mon.FaultCost(), mon.Stats().Faults
	if _, err := measurePhase("twin", m, seg, pages, faults, seed+99); err != nil {
		t.Fatal(err)
	}
	n := mon.Stats().Faults - before
	window := mon.FaultCost() - cost
	if want := time.Duration(float64(window) / float64(n)); row.Mean != want {
		t.Errorf("rate-0 row mean %v, want %v: its window's %d faults cost %v", row.Mean, want, n, window)
	}
}
