package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/faulty"
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

// TestFailedExportLetsGoOfTheVM: an export whose final drain fails has
// already unregistered the VM's regions, and their page state goes with
// them: the monitor no longer knows the pid, as after a clean export.
func TestFailedExportLetsGoOfTheVM(t *testing.T) {
	params := faulty.Uniform(0, 0)
	params.PerOp[faulty.OpMultiPut].ErrorRate = 1
	cfg := DefaultConfig(faulty.Wrap(dram.New(dram.DefaultParams(), 9), params, 5), 8)
	cfg.WriteBatchSize = 1024 // nothing flushes before the export's drain
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	for i := 0; i < 16; i++ {
		_, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if _, _, err := m.ExportVM(now, 4242); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("export err = %v, want the injected flush failure", err)
	}
	if _, ok := m.Partition(4242); ok || len(m.pages.regions) != 0 {
		t.Fatalf("failed export left the VM in the page table (%d regions)", len(m.pages.regions))
	}
	if n := m.wb.QueuedLen(); n != 0 {
		t.Fatalf("failed export left %d of the VM's writes queued with no region", n)
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

// TestFailedTierDrainLetsGoOfPooledPages: an export whose compressed-tier
// drain fails part way has let go of the VM's regions, so the VM's pages
// still pooled or queued go with them. The other VM's evictions then
// overflow the pool and flush the write list without meeting a page that
// no region names.
func TestFailedTierDrainLetsGoOfPooledPages(t *testing.T) {
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
	touch := func(a uint64) {
		t.Helper()
		data, done, err := m.Touch(now, a, true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		copy(data, half)
	}
	for i := 0; i < 8; i++ {
		touch(otherBase + uint64(i)*PageSize)
	}
	for i := 0; i < 4; i++ {
		touch(addr(i))
	}
	if pooled, _ := m.CompressStats(); pooled.RawBytes != 8*PageSize || m.wb.QueuedLen() != 0 {
		t.Fatalf("setup: %d pages pooled, %d queued; want pid %d's 8 pooled", pooled.RawBytes/PageSize, m.wb.QueuedLen(), leave)
	}
	store.down = true
	if _, _, err := m.ExportVM(now, leave); !errors.Is(err, errStoreDown) {
		t.Fatalf("export err = %v, want the failed tier flush", err)
	}
	store.down = false
	if pooled, _ := m.CompressStats(); pooled.RawBytes != 0 || m.wb.QueuedLen() != 0 {
		t.Fatalf("failed export left %d pages pooled, %d queued with no region", pooled.RawBytes/PageSize, m.wb.QueuedLen())
	}
	for i := 4; i < 64; i++ {
		touch(addr(i))
	}
	if s, _ := m.CompressStats(); s.Overflowed == 0 {
		t.Fatal("the pool never overflowed")
	}
	if _, err := m.wb.Drain(now); err != nil {
		t.Fatal(err)
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
