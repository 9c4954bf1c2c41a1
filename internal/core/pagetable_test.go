package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// TestPageRecordSize pins the record at 56 bytes: the three views share its
// fields, so a new fact must find room in them, not grow every record.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(pageRec{}); got != 56 {
		t.Fatalf("pageRec is %d bytes, want 56", got)
	}
}

// unseenPageFact checks the invariant that lets Discard and UnregisterVM
// release a page alike: a registered page with a queued write, a zero mark
// or a pooled copy has been seen. It names the first page that breaks it.
func unseenPageFact(m *Monitor) error {
	for _, r := range m.pages.regions {
		for p, e := range r.entries {
			state := m.pages.recs[e&entSlot].state
			if e&entSeen == 0 && (e&entZero != 0 || state&(recQueued|recPooled) != 0) {
				return fmt.Errorf("page %#x is unseen with entry %#x, record state %#b", r.start+uint64(p)<<pageShift, e, state)
			}
		}
	}
	return nil
}

// TestRegionTableBytesPerPage pins what registering guest memory costs: the
// descriptor's page table and the monitor's together must stay within 16
// bytes per registered page (today a uint32 entry each), and the record slab
// must follow the LRU capacity and the write list, not the region size.
func TestRegionTableBytesPerPage(t *testing.T) {
	const pages = 1 << 20 // a 4 GiB guest
	const capacity = 64
	m, err := NewMonitor(DefaultConfig(dram.New(dram.DefaultParams(), 1), capacity), nil, "hyp-table")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := m.RegisterRange(testBase, pages*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / pages
	if perPage > 16 {
		t.Fatalf("registration allocated %.1f bytes per guest page, want <= 16", perPage)
	}
	t.Logf("%.2f bytes per registered guest page", perPage)

	// Sweep far more pages than the LRU holds: every one is seen, most are
	// evicted and written back, and the slab stays at working-set size.
	var now time.Duration
	for i := 0; i < 64*capacity; i++ {
		_, done, err := m.Touch(now, addr(i*17), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	bound := capacity + 1 + 3*m.cfg.WriteBatchSize // resident + queued + a few flushes in flight
	if n := len(m.pages.recs) - 1; n > bound {
		t.Fatalf("record slab holds %d records after a %d-page sweep, want <= %d", n, 64*capacity, bound)
	}
	if len(m.pages.overflow) != 0 {
		t.Fatalf("in-region pages spilled %d overflow entries", len(m.pages.overflow))
	}
}

// TestTenantChurnLeavesNoPageState registers, dirties and tears down the same
// range over and over: whatever outlives a region (writes still in flight at
// teardown) is retired by the next sweep, so neither the record slab nor the
// overflow map grows with the number of tenants that have come and gone.
func TestTenantChurnLeavesNoPageState(t *testing.T) {
	const pages, capacity = 64, 8
	cfg := ramcloudCfg(capacity)
	cfg.ElideZeroPages = true
	cfg.WriteBatchSize = 4
	m, err := NewMonitor(cfg, nil, "hyp-churn")
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	peak := 0
	for tenant := 0; tenant < 40; tenant++ {
		pid := 100 + tenant
		if _, err := m.RegisterRange(testBase, pages*PageSize, pid); err != nil {
			t.Fatal(err)
		}
		// The length varies so that some teardowns come right behind a flush.
		for i := 0; i < 3*pages+tenant; i++ {
			// Every other page stays all-zero, so teardown meets zero marks
			// as well as queued and in-flight writes.
			data, done, err := m.Touch(now, addr(i%pages), true)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				data[0] = byte(tenant + 1)
			}
			now = done
		}
		if now, err = m.UnregisterVM(now, pid); err != nil {
			t.Fatal(err)
		}
		if m.ResidentPages() != 0 || m.WriteListLen() != 0 || m.WritebackStats().ZeroBitmap != 0 {
			t.Fatalf("tenant %d left %d resident, %d queued, %d zero marks", tenant,
				m.ResidentPages(), m.WriteListLen(), m.WritebackStats().ZeroBitmap)
		}
		peak = max(peak, len(m.pages.overflow))
	}
	if peak == 0 {
		t.Fatal("no teardown ever met a write in flight: the test exercises nothing")
	}
	if bound := 3 * cfg.WriteBatchSize; peak > bound || len(m.pages.recs) > capacity+1+bound {
		t.Fatalf("after 40 tenants: overflow peaked at %d entries, slab holds %d records (bound %d)", peak, len(m.pages.recs), bound)
	}
	if _, err := m.Drain(now + time.Second); err != nil {
		t.Fatal(err)
	}
	if len(m.pages.overflow) != 0 || len(m.wb.inflight) != 0 {
		t.Fatalf("drained monitor still tracks %d orphaned pages, %d writes in flight", len(m.pages.overflow), len(m.wb.inflight))
	}
}

// TestZeroMarksOutliveExportAndReturn holds the page table to what the
// key-indexed zero bitmap did across a migration round trip: marks of an
// exported VM stay with the source and are found again when the VM, under
// the same partition, is imported back.
func TestZeroMarksOutliveExportAndReturn(t *testing.T) {
	pages := newPageTable()
	w := newWriteback(pages, dram.New(dram.DefaultParams(), 1), 4, 1, nil)
	const part = kvstore.PartitionID(3)
	pages.addRegion(testBase, 8*PageSize, 1, part)
	key := kvstore.MakeKey(addr(5), part)
	w.NoteZero(key)
	pages.setSeen(addr(5))
	pages.dropRegion(testBase)
	if !w.HasZero(key) || w.Snapshot().ZeroBitmap != 1 {
		t.Fatal("zero mark lost with its region")
	}
	pages.addRegion(testBase, 8*PageSize, 2, part+1)
	if w.HasZero(kvstore.MakeKey(addr(5), part+1)) || pages.seen(addr(5)) {
		t.Fatal("a different partition's region inherited the page's state")
	}
	pages.dropRegion(testBase)
	pages.addRegion(testBase, 8*PageSize, 1, part)
	if !pages.seen(addr(5)) || !w.TakeZero(key) || len(pages.overflow) != 0 {
		t.Fatalf("returning region did not adopt its pages' state (overflow %d)", len(pages.overflow))
	}
}

func TestAllZeroMatchesByteLoop(t *testing.T) {
	byteLoop := func(p []byte) bool {
		for _, b := range p {
			if b != 0 {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 100, PageSize - 1, PageSize, PageSize + 3} {
		p := make([]byte, n)
		if !allZero(p) {
			t.Fatalf("all-zero buffer of %d bytes reported non-zero", n)
		}
		for _, set := range []int{0, 1, n / 2, n - 9, n - 8, n - 2, n - 1} {
			if set < 0 || set >= n {
				continue
			}
			for _, v := range []byte{1, 0x80} {
				p[set] = v
				if got, want := allZero(p), byteLoop(p); got != want {
					t.Fatalf("len %d, byte %d = %#x: allZero = %v, byte loop %v", n, set, v, got, want)
				}
				p[set] = 0
			}
		}
	}
	// An unaligned window of a larger buffer.
	big := bytes.Repeat([]byte{0}, 4*PageSize)
	big[3+PageSize] = 1
	if !allZero(big[3:3+PageSize]) || allZero(big[3:4+PageSize]) {
		t.Fatal("allZero read outside its slice or missed its last byte")
	}
}

// BenchmarkLRUInsertRemove is the resident-list work of one steady-state
// fault: find and unlink the oldest page, link the new one.
func BenchmarkLRUInsertRemove(b *testing.B) {
	const pages, capacity = 2048, 512
	table := newPageTable()
	table.addRegion(testBase, pages*PageSize, 1, 1)
	l := newLRU(table)
	for i := 0; i < capacity; i++ {
		l.Insert(addr(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, _ := l.Oldest()
		l.Remove(victim)
		l.Insert(addr((i + capacity) % pages))
	}
}
