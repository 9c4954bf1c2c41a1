package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// TestPageRecordSize pins the record at 48 bytes: the three views share its
// fields, so a new fact must find room in them, not grow every record.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(pageRec{}); got != 48 {
		t.Fatalf("pageRec is %d bytes, want 48", got)
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
}

// TestTenantChurnLeavesNoPageState registers, dirties and tears down the same
// range over and over: the writes still in flight at a teardown outlive their
// region, named by no entry, until a later sweep retires them, so neither the
// record slab nor the in-flight list grows with the number of tenants that
// have come and gone.
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
	bound := 3 * cfg.WriteBatchSize
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
		if m.ResidentPages() != 0 || m.WriteListLen() != 0 || m.WritebackStats().ZeroBitmap != 0 || len(m.pages.regions) != 0 {
			t.Fatalf("tenant %d left %d resident, %d queued, %d zero marks, %d regions", tenant,
				m.ResidentPages(), m.WriteListLen(), m.WritebackStats().ZeroBitmap, len(m.pages.regions))
		}
		peak = max(peak, len(m.wb.inflight))
		if live := len(m.pages.recs) - 1 - m.pages.free.Len; live != len(m.wb.inflight) {
			t.Fatalf("tenant %d: %d live records outlive the teardown, %d of them in flight", tenant, live, len(m.wb.inflight))
		}
	}
	if peak == 0 {
		t.Fatal("no teardown ever met a write in flight: the test exercises nothing")
	}
	if peak > bound || len(m.pages.recs) > capacity+1+bound {
		t.Fatalf("after 40 tenants: in-flight list peaked at %d records, slab holds %d records (bound %d)", peak, len(m.pages.recs), bound)
	}
	if _, err := m.Drain(now + time.Second); err != nil {
		t.Fatal(err)
	}
	if live := len(m.pages.recs) - 1 - m.pages.free.Len; live != 0 || len(m.wb.inflight) != 0 {
		t.Fatalf("drained monitor still holds %d records, %d writes in flight", live, len(m.wb.inflight))
	}
}

// TestReregistrationStartsFromZero tears a VM down with a write in flight
// and registers the same range again under the same partition: the new
// region's pages are all unknown, the orphaned write still counts for Drain,
// and retiring it leaves the new page that reuses its key alone.
func TestReregistrationStartsFromZero(t *testing.T) {
	const pages, pid = 32, 77
	cfg := ramcloudCfg(4)
	cfg.WriteBatchSize = 4
	m, err := NewMonitor(cfg, nil, "hyp-again")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, pages*PageSize, pid); err != nil {
		t.Fatal(err)
	}
	part, _ := m.Partition(pid)
	var now time.Duration
	for i := 0; m.WritebackStats().Flushes == 0; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i + 1)
		now = done
	}
	if len(m.wb.inflight) == 0 {
		t.Fatal("no write in flight after the first flush")
	}
	orphan := &m.pages.recs[m.wb.inflight[0]]
	page, want := kvstore.Key(orphan.id).Page(), orphan.done
	if want <= now {
		t.Fatalf("the flush completed at %v, before teardown at %v: nothing is in flight", want, now)
	}
	teardown := now
	if now, err = m.UnregisterVM(now, pid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, pages*PageSize, pid); err != nil {
		t.Fatal(err)
	}
	if again, _ := m.Partition(pid); again != part {
		t.Fatalf("re-registration got partition %d, want %d", again, part)
	}
	for p, e := range m.pages.regions[0].entries {
		if e != 0 {
			t.Fatalf("page %d of the new region starts with entry %#x", p, e)
		}
	}
	// The page the orphaned write carries is a first touch now, and its new
	// record must survive the orphan's retirement.
	if _, now, err = m.Touch(now, page, false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().InFlightWaits != 0 {
		t.Fatal("a first touch waited on the torn-down VM's write")
	}
	if done, err := m.Drain(teardown); err != nil || done != want {
		t.Fatalf("Drain = %v, %v; want the orphaned write's completion %v", done, err, want)
	}
	if !m.PageResident(page) {
		t.Fatal("retiring the orphaned write unlinked the new page's record")
	}
}

// TestZeroMarksOutliveExportAndReturn: an export ships the VM's zero marks
// in VMImage.Zero and leaves none behind; the import restores exactly those.
// Resident zero pages leave through the one eviction path, so they travel
// as marks too.
func TestZeroMarksOutliveExportAndReturn(t *testing.T) {
	src, dst := twoMonitors(t)
	src.cfg.ElideZeroPages = true
	part, _ := src.Partition(4242)
	now := time.Duration(0)
	// 48 pages through a 16-page LRU: the even pages stay all-zero, and the
	// evicted ones are elided.
	var zero []uint64
	for i := 0; i < 48; i++ {
		data, done, err := src.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			data[0] = 1
		} else {
			zero = append(zero, addr(i))
		}
		now = done
	}
	marked := 0
	for i := 0; i < 64; i++ {
		if src.wb.HasZero(kvstore.MakeKey(addr(i), part)) {
			marked++
		}
	}
	if marked != 16 {
		t.Fatalf("%d pages zero-elided before the export, want the 16 evicted even pages", marked)
	}
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(image.Zero, zero) {
		t.Fatalf("image carries zero marks %#x, want %#x", image.Zero, zero)
	}
	if n := src.WritebackStats().ZeroBitmap; n != 0 || len(src.pages.regions) != 0 {
		t.Fatalf("export left %d zero marks and %d regions on the source", n, len(src.pages.regions))
	}
	if _, err := dst.ImportVM(now, image); err != nil {
		t.Fatal(err)
	}
	if n := dst.WritebackStats().ZeroBitmap; n != len(zero) {
		t.Fatalf("destination holds %d zero marks, want %d", n, len(zero))
	}
	for _, a := range zero {
		if !dst.wb.HasZero(kvstore.MakeKey(a, part)) || !dst.pages.seen(a) {
			t.Fatalf("page %#x arrived without its zero mark", a)
		}
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
