package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// newLRUList returns a list over a table with one region of 1<<16 pages at
// address 0, so that pg(n) is the region's page n.
func newLRUList() *lruList {
	pages := newPageTable()
	pages.addRegion(0, 1<<16*PageSize, 1, 1)
	return newLRU(pages)
}

// pg returns the address of page n.
func pg(n uint64) uint64 { return n * PageSize }

func TestLRUInsertOldest(t *testing.T) {
	l := newLRUList()
	if _, ok := l.Oldest(); ok {
		t.Fatal("empty list has an oldest entry")
	}
	l.Insert(pg(10))
	l.Insert(pg(20))
	l.Insert(pg(30))
	if got, _ := l.Oldest(); got != pg(10) {
		t.Fatalf("Oldest = %d", got)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLRURemove(t *testing.T) {
	l := newLRUList()
	l.Insert(pg(1))
	l.Insert(pg(2))
	if key, ok := l.Remove(pg(1)); !ok || key != kvstore.MakeKey(pg(1), 1) {
		t.Fatalf("Remove(1) = %v, %v; want the page's key", key, ok)
	}
	if _, ok := l.Remove(pg(1)); ok {
		t.Fatal("double remove succeeded")
	}
	if got, _ := l.Oldest(); got != pg(2) {
		t.Fatalf("Oldest = %d", got)
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l := newLRUList()
	l.Insert(pg(1))
	l.Insert(pg(1))
}

// TestLRUInsertOutsideRegionsPanics: a page outside every registered region
// has no entry to hold its record.
func TestLRUInsertOutsideRegionsPanics(t *testing.T) {
	l := newLRUList()
	if l.Contains(pg(1 << 16)) {
		t.Fatal("a page outside every region is resident")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("insert outside every region did not panic")
		}
	}()
	l.Insert(pg(1 << 16))
}

func TestLRUContains(t *testing.T) {
	l := newLRUList()
	l.Insert(pg(7))
	if !l.Contains(pg(7)) || l.Contains(pg(8)) {
		t.Fatal("Contains wrong")
	}
}

// lruModel is the reference implementation the list must match: a plain
// FIFO slice plus a membership map.
type lruModel struct {
	order []uint64
	in    map[uint64]bool
}

func newLRUModel() *lruModel { return &lruModel{in: make(map[uint64]bool)} }

func (m *lruModel) Insert(a uint64) {
	m.order = append(m.order, a)
	m.in[a] = true
}

func (m *lruModel) Remove(a uint64) bool {
	if !m.in[a] {
		return false
	}
	delete(m.in, a)
	for i, v := range m.order {
		if v == a {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true
}

func (m *lruModel) Oldest() (uint64, bool) {
	if len(m.order) == 0 {
		return 0, false
	}
	return m.order[0], true
}

// TestLRUMatchesFlatModelProperty drives random insert/remove/evict
// sequences through the list and a map-based model: Oldest, Len, and
// Contains must agree at every step. A write-back engine over the same page
// table enqueues, steals and flushes the same pages as it goes, because a
// page's LRU node, pending write and in-flight write share one record.
func TestLRUMatchesFlatModelProperty(t *testing.T) {
	const part = kvstore.PartitionID(9)
	f := func(raw []uint16) bool {
		model := newLRUModel()
		pages := newPageTable()
		pages.addRegion(0, 64*PageSize, 1, part)
		l := newLRU(pages)
		engine := newWriteback(pages, dram.New(dram.DefaultParams(), 1), 4, 1, nil)
		for step, r := range raw {
			// Few enough page addresses to recur; op chosen by the low bits.
			a := uint64(r>>2&63) * PageSize
			now := time.Duration(step) * time.Microsecond
			switch r & 3 {
			case 0, 1: // insert (if absent), as a re-fault does: steal first
				if !model.in[a] {
					model.Insert(a)
					engine.Steal(now, kvstore.MakeKey(a, part))
					l.Insert(a)
				}
			case 2: // remove
				if _, ok := l.Remove(a); ok != model.Remove(a) {
					return false
				}
			case 3: // evict oldest to the write list
				want, wantOK := model.Oldest()
				got, ok := l.Oldest()
				if ok != wantOK || (ok && got != want) {
					return false
				}
				if ok {
					model.Remove(want)
					key, _ := l.Remove(got)
					if key != kvstore.MakeKey(got, part) {
						return false
					}
					if _, err := engine.Enqueue(now, key, make([]byte, PageSize), true); err != nil {
						return false
					}
				}
			}
			if l.Len() != len(model.order) || l.Contains(a) != model.in[a] {
				return false
			}
		}
		// Addrs lists the pages oldest first, as the model keeps them.
		got := l.Addrs()
		if !slices.Equal(got, model.order) {
			return false
		}
		// Drained and emptied, the table must hold no record and no entry
		// may name one: nothing leaks per page ever tracked.
		if _, err := engine.Drain(time.Hour); err != nil {
			return false
		}
		for _, a := range got {
			l.Remove(a)
		}
		if l.Len() != 0 || slices.ContainsFunc(pages.regions[0].entries, func(e uint32) bool { return e&entSlot != 0 }) {
			return false
		}
		for _, rec := range pages.recs {
			if rec.state != 0 || rec.id != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorFootprintInvariantProperty drives random Touch/Discard/Resize
// mixes through monitors of every worker count: ResidentPages() must never
// exceed FootprintLimit(), whichever workers' pages fill the list.
func TestMonitorFootprintInvariantProperty(t *testing.T) {
	f := func(raw []uint16, workerPick uint8) bool {
		cfg := dramCfg(8)
		cfg.Workers = []int{1, 2, 3, 4, 8}[int(workerPick)%5]
		m := newMonitor(t, cfg, 64)
		now := time.Duration(0)
		for i, r := range raw {
			a := addr(int(r>>3) % 64)
			switch {
			case r&7 == 6:
				m.Discard(a)
			case r&7 == 7:
				capacity := int(r>>3)%12 + 1
				var err error
				if now, err = m.Resize(now, capacity); err != nil {
					return false
				}
			default:
				_, done, err := m.Touch(now, a, i%2 == 0)
				if err != nil {
					return false
				}
				now = done
			}
			if m.ResidentPages() > m.FootprintLimit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUFIFOOrderProperty(t *testing.T) {
	// Eviction order must equal insertion order regardless of interleaved
	// membership checks — the paper's "ordering does not change" semantics.
	f := func(raw []uint16) bool {
		l := newLRUList()
		var inserted []uint64
		seen := make(map[uint64]bool)
		for _, r := range raw {
			a := pg(uint64(r))
			if seen[a] {
				continue
			}
			seen[a] = true
			l.Insert(a)
			inserted = append(inserted, a)
		}
		for _, want := range inserted {
			got, ok := l.Oldest()
			if !ok || got != want {
				return false
			}
			l.Remove(got)
		}
		return l.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
