package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
)

// twoMonitors builds source and destination monitors over one shared store
// and registry, each with one registered VM range.
func twoMonitors(t *testing.T) (src, dst *Monitor) {
	t.Helper()
	store := ramcloud.New(ramcloud.DefaultParams(), 9)
	registry := kvstore.NewLocalRegistry()
	var err error
	src, err = NewMonitor(DefaultConfig(store, 16), registry, "hyp-a")
	if err != nil {
		t.Fatal(err)
	}
	dst, err = NewMonitor(DefaultConfig(store, 16), registry, "hyp-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RegisterRange(testBase, 64*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestExportImportRoundTrip(t *testing.T) {
	src, dst := twoMonitors(t)
	// Populate pages with recognisable contents on the source.
	now := time.Duration(0)
	for i := 0; i < 32; i++ {
		data, done, err := src.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		copy(data, bytes.Repeat([]byte{byte(i + 1)}, PageSize))
	}
	part, _ := src.Partition(4242)

	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if src.ResidentPages() != 0 {
		t.Fatalf("source still holds %d pages", src.ResidentPages())
	}
	if _, ok := src.Partition(4242); ok {
		t.Fatal("source retained the partition")
	}
	if image.Partition != part || len(image.Seen) != 32 {
		t.Fatalf("image = part %d, %d seen", image.Partition, len(image.Seen))
	}
	if image.MetadataBytes() <= 0 {
		t.Fatal("metadata size missing")
	}

	now, err = dst.ImportVM(now, image)
	if err != nil {
		t.Fatal(err)
	}
	dstPart, ok := dst.Partition(4242)
	if !ok || dstPart != part {
		t.Fatalf("destination partition = %d, want %d", dstPart, part)
	}
	// Every page faults in from the shared store with intact contents.
	for i := 0; i < 32; i++ {
		data, done, err := dst.Touch(now, addr(i), false)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		now = done
		if data[0] != byte(i+1) || data[PageSize-1] != byte(i+1) {
			t.Fatalf("page %d corrupted after migration", i)
		}
	}
	if dst.Stats().FirstTouch != 0 {
		t.Fatal("migrated pages must come from the store, not the zero page")
	}
}

func TestExportUnknownPID(t *testing.T) {
	src, _ := twoMonitors(t)
	if _, _, err := src.ExportVM(0, 999); !errors.Is(err, ErrUnknownPID) {
		t.Fatalf("err = %v", err)
	}
}

// switchedStore fails every MultiPut while down is set.
type switchedStore struct {
	kvstore.Store
	down bool
}

var errStoreDown = errors.New("store down")

func (s *switchedStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if s.down {
		return now, errStoreDown
	}
	return s.Store.MultiPut(now, keys, pages)
}

// writePages fills each page i in [from, to) of pid 4242 with the byte i+1,
// returning the time the last write resumes.
func writePages(t *testing.T, m *Monitor, now time.Duration, from, to int) time.Duration {
	t.Helper()
	for i := from; i < to; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		copy(data, bytes.Repeat([]byte{byte(i + 1)}, PageSize))
	}
	return now
}

// checkPages reads pages [from, to) of pid 4242 back on m.
func checkPages(t *testing.T, m *Monitor, now time.Duration, from, to int) time.Duration {
	t.Helper()
	for i := from; i < to; i++ {
		data, done, err := m.Touch(now, addr(i), false)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		now = done
		if data[0] != byte(i+1) || data[PageSize-1] != byte(i+1) {
			t.Fatalf("page %d reads %#x, want %#x", i, data[0], i+1)
		}
	}
	return now
}

// TestFailedExportKeepsTheVM: an export whose final drain fails leaves the
// VM registered and runnable where it was, and a retry once the store heals
// exports it.
func TestFailedExportKeepsTheVM(t *testing.T) {
	store := &switchedStore{Store: dram.New(dram.DefaultParams(), 9)}
	registry := kvstore.NewLocalRegistry()
	cfg := DefaultConfig(store, 8)
	cfg.WriteBatchSize = 1024 // nothing flushes before the export's drain
	src, err := NewMonitor(cfg, registry, "hyp-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RegisterRange(testBase, 64*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	now := writePages(t, src, 0, 0, 16)
	store.down = true
	if _, _, err := src.ExportVM(now, 4242); !errors.Is(err, errStoreDown) {
		t.Fatalf("export err = %v, want the failed flush", err)
	}
	if _, ok := src.Partition(4242); !ok || len(src.pages.regions) != 1 {
		t.Fatalf("failed export let go of the VM (%d regions)", len(src.pages.regions))
	}
	now = checkPages(t, src, now, 0, 16)
	store.down = false
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	dst, err := NewMonitor(DefaultConfig(store, 8), registry, "hyp-b")
	if err != nil {
		t.Fatal(err)
	}
	if now, err = dst.ImportVM(now, image); err != nil {
		t.Fatal(err)
	}
	checkPages(t, dst, now, 0, 16)
}

// TestFailedTierDrainKeepsPooledPages: an export whose compressed-tier
// drain fails part way keeps the VM, its pooled pages and its queued
// writes. The other VM's evictions then overflow the pool and flush, the
// VM reads back every page, and a retry exports it.
func TestFailedTierDrainKeepsPooledPages(t *testing.T) {
	const leave = 4343
	store := &switchedStore{Store: dram.New(dram.DefaultParams(), 9)}
	cfg := DefaultConfig(store, 4)
	half := make([]byte, PageSize) // half literal, half zero: pooled at about half size
	for i := range half[:PageSize/2] {
		half[i] = 1
	}
	params := DefaultCompressParams(uint64(12 * len(compressPage(half))))
	cfg.Compress = &params
	cfg.WriteBatchSize = 4 // the tier drain flushes at its fourth page
	m := newMonitor(t, cfg, 256)
	otherBase := uint64(testBase + 1024*PageSize)
	if _, err := m.RegisterRange(otherBase, 64*PageSize, leave); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	touch := func(a uint64, write bool) {
		t.Helper()
		data, done, err := m.Touch(now, a, write)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if !write && !bytes.Equal(data, half) {
			t.Fatalf("page %#x lost its contents", a)
		}
		copy(data, half)
	}
	for i := 0; i < 8; i++ {
		touch(otherBase+uint64(i)*PageSize, true)
	}
	for i := 0; i < 4; i++ {
		touch(addr(i), true)
	}
	if pooled, _ := m.CompressStats(); pooled.RawBytes != 8*PageSize || m.wb.QueuedLen() != 0 {
		t.Fatalf("setup: %d pages pooled, %d queued; want pid %d's 8 pooled", pooled.RawBytes/PageSize, m.wb.QueuedLen(), leave)
	}
	store.down = true
	if _, _, err := m.ExportVM(now, leave); !errors.Is(err, errStoreDown) {
		t.Fatalf("export err = %v, want the failed tier flush", err)
	}
	store.down = false
	if _, ok := m.Partition(leave); !ok {
		t.Fatal("failed export let go of the VM")
	}
	if pooled, _ := m.CompressStats(); pooled.RawBytes != 4*PageSize || m.wb.QueuedLen() != 4 {
		t.Fatalf("failed export left %d pages pooled, %d queued; want 4 and 4", pooled.RawBytes/PageSize, m.wb.QueuedLen())
	}
	for i := 4; i < 64; i++ {
		touch(addr(i), true)
	}
	if s, _ := m.CompressStats(); s.Overflowed == 0 {
		t.Fatal("the pool never overflowed")
	}
	for i := 0; i < 8; i++ {
		touch(otherBase+uint64(i)*PageSize, false)
	}
	image, _, err := m.ExportVM(now, leave)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if len(image.Seen) != 8 {
		t.Fatalf("retried export carries %d seen pages, want 8", len(image.Seen))
	}
}

// TestExportFlushesOnlyItsOwnWrites: the export's drain flushes and waits
// for the exported VM's writes alone. Another VM's queued writes neither
// lengthen the pause nor leave the write list.
func TestExportFlushesOnlyItsOwnWrites(t *testing.T) {
	const other = 4343
	otherBase := uint64(testBase + 1024*PageSize)
	export := func(otherPages int) time.Duration {
		cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 9), 256)
		cfg.WriteBatchSize = 1024
		m, err := NewMonitor(cfg, kvstore.NewLocalRegistry(), "hyp-a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterRange(testBase, 64*PageSize, 4242); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterRange(otherBase, 64*PageSize, other); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := 0; i < otherPages; i++ {
			_, done, err := m.Touch(now, otherBase+uint64(i)*PageSize, true)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		now = writePages(t, m, now, 0, 16)
		// The other VM's pages are the oldest: the shrink queues them all.
		if now, err = m.Resize(now, 16); err != nil {
			t.Fatal(err)
		}
		_, done, err := m.ExportVM(now, 4242)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.WriteListLen(); n != otherPages {
			t.Fatalf("%d writes queued after the export, want the other VM's %d", n, otherPages)
		}
		if s := m.WritebackStats(); s.Flushes != 1 || s.FlushSizes[16] != 1 {
			t.Fatalf("export flushed %v, want one batch of the VM's 16 pages", s.FlushSizes)
		}
		return done - now
	}
	alone, beside := export(0), export(64)
	t.Logf("export pause: %v alone, %v beside 64 queued writes of another VM", alone, beside)
	if beside > alone*11/10 {
		t.Fatalf("export took %v beside 64 queued writes of another VM, %v alone", beside, alone)
	}
}

func TestImportIntoBusyPIDFails(t *testing.T) {
	src, dst := twoMonitors(t)
	if _, err := dst.RegisterRange(testBase+1<<30, 16*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	_, now, err := src.Touch(0, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportVM(now, image); !errors.Is(err, ErrPartitionTaken) {
		t.Fatalf("err = %v", err)
	}
}

// TestFailedImportChangesNothing: an import whose second region collides
// unregisters its first, so the destination is as before, and once the
// collision is gone a retry succeeds.
func TestFailedImportChangesNothing(t *testing.T) {
	src, dst := twoMonitors(t)
	second := uint64(testBase + 1<<30)
	if _, err := src.RegisterRange(second, 16*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.RegisterRange(second+8*PageSize, 16*PageSize, 777); err != nil {
		t.Fatal(err)
	}
	now := writePages(t, src, 0, 0, 32)
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if len(image.Regions) != 2 {
		t.Fatalf("image has %d regions, want 2", len(image.Regions))
	}
	if _, err := dst.ImportVM(now, image); err == nil {
		t.Fatal("import into an overlapping region succeeded")
	}
	if _, ok := dst.Partition(4242); ok || len(dst.pages.regions) != 1 || len(dst.fd.Regions()) != 1 {
		t.Fatalf("failed import left pid 4242 behind (%d regions)", len(dst.pages.regions))
	}
	if now, err = dst.UnregisterVM(now, 777); err != nil {
		t.Fatal(err)
	}
	if now, err = dst.ImportVM(now, image); err != nil {
		t.Fatalf("retry: %v", err)
	}
	checkPages(t, dst, now, 0, 32)
}

func TestImportEmptyImage(t *testing.T) {
	_, dst := twoMonitors(t)
	if _, err := dst.ImportVM(0, &VMImage{}); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := dst.ImportVM(0, nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestExportDrainsWriteList(t *testing.T) {
	src, dst := twoMonitors(t)
	now := time.Duration(0)
	// Touch more pages than LRU capacity so the write list is active.
	for i := 0; i < 40; i++ {
		_, done, err := src.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if src.WriteListLen() != 0 {
		t.Fatal("write list not drained at export")
	}
	// All 40 pages readable on the destination.
	if _, err := dst.ImportVM(now, image); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := dst.Touch(now, addr(i), false); err != nil {
			t.Fatalf("page %d lost in migration: %v", i, err)
		}
	}
}

func TestMigratedVMKeepsWorkingUnderPressure(t *testing.T) {
	src, dst := twoMonitors(t)
	now := time.Duration(0)
	for i := 0; i < 24; i++ {
		data, done, err := src.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = byte(i)
	}
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = dst.ImportVM(now, image); err != nil {
		t.Fatal(err)
	}
	// Work the destination hard: refaults, evictions, steals all on the
	// migrated partition.
	for round := 0; round < 5; round++ {
		for i := 0; i < 24; i++ {
			data, done, err := dst.Touch(now, addr(i), round%2 == 1)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if data[0] != byte(i) {
				t.Fatalf("round %d page %d corrupted", round, i)
			}
		}
	}
	if dst.Stats().Evictions == 0 {
		t.Fatal("destination never evicted; pressure test ineffective")
	}
}
