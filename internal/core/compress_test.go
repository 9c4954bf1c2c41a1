package core

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
)

func TestCompressRoundTripZeroPage(t *testing.T) {
	page := make([]byte, PageSize)
	blob := compressPage(page)
	if len(blob) > 8 {
		t.Fatalf("zero page compressed to %d bytes", len(blob))
	}
	back, err := decompressPage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, page) {
		t.Fatal("round trip corrupted zero page")
	}
}

func TestCompressRoundTripIncompressible(t *testing.T) {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i*7 + 1) // never a long zero run
	}
	blob := compressPage(page)
	back, err := decompressPage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, page) {
		t.Fatal("round trip corrupted dense page")
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64, sparsity uint8) bool {
		page := make([]byte, PageSize)
		state := uint64(seed)
		for i := range page {
			state = state*6364136223846793005 + 1442695040888963407
			// Higher sparsity ⇒ more zero bytes.
			if byte(state>>32)%(sparsity%16+1) != 0 {
				page[i] = byte(state >> 24)
			}
		}
		back, err := decompressPage(compressPage(page))
		return err == nil && bytes.Equal(back, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressSparsePageShrinks(t *testing.T) {
	page := make([]byte, PageSize)
	copy(page[100:], []byte("hello world"))
	copy(page[3000:], []byte("tail data"))
	blob := compressPage(page)
	if len(blob) > PageSize/8 {
		t.Fatalf("sparse page compressed to %d bytes", len(blob))
	}
}

func TestDecompressRejectsCorruptBlobs(t *testing.T) {
	for _, blob := range [][]byte{
		{0x42},                 // unknown token
		{tokZeros},             // missing length
		{tokLiteral, 10, 1, 2}, // truncated literal
		{tokZeros, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // over-long run
	} {
		if _, err := decompressPage(blob); err == nil {
			t.Fatalf("blob %v accepted", blob)
		}
	}
	// Valid tokens but short of a full page.
	if _, err := decompressPage(compressPage(make([]byte, PageSize))[:2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// compressedMonitor builds a monitor with a compressed tier over RAMCloud.
func compressedMonitor(t *testing.T, lruPages int, poolBytes uint64) *Monitor {
	t.Helper()
	cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), lruPages)
	params := DefaultCompressParams(poolBytes)
	cfg.Compress = &params
	m, err := NewMonitor(cfg, nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, 256*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompressedTierAbsorbsSparseEvictions(t *testing.T) {
	m := compressedMonitor(t, 4, 1<<20)
	now := time.Duration(0)
	// Sparse pages (one marker byte) evict into the pool, not the store.
	for i := 0; i < 16; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = byte(i + 1)
	}
	st, ok := m.CompressStats()
	if !ok {
		t.Fatal("tier reported disabled")
	}
	if st.Stored == 0 {
		t.Fatal("no evictions reached the pool")
	}
	if m.cfg.Store.Stats().Puts != 0 {
		t.Fatalf("store saw %d puts; pool should have absorbed them", m.cfg.Store.Stats().Puts)
	}
	// Refaults come back from the pool with intact contents.
	for i := 0; i < 16; i++ {
		data, done, err := m.Touch(now, addr(i), false)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if data[0] != byte(i+1) {
			t.Fatalf("page %d corrupted through the pool", i)
		}
	}
	st, _ = m.CompressStats()
	if st.Hits == 0 {
		t.Fatal("no pool hits")
	}
	if m.cfg.Store.Stats().Gets != 0 {
		t.Fatal("refaults read the store despite pool hits")
	}
}

func TestCompressedTierHitFasterThanRemoteRead(t *testing.T) {
	measure := func(pool uint64) time.Duration {
		cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), 4)
		// Force refaults to the store (no write-list steals) so the
		// comparison isolates pool hit vs remote read.
		cfg.WriteBatchSize = 1
		cfg.StealEnabled = false
		if pool > 0 {
			params := DefaultCompressParams(pool)
			cfg.Compress = &params
		}
		m, err := NewMonitor(cfg, nil, "hyp")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterRange(testBase, 256*PageSize, 4242); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := 0; i < 16; i++ {
			_, done, err := m.Touch(now, addr(i), true)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		start := now
		for round := 0; round < 4; round++ {
			for i := 0; i < 16; i++ {
				_, done, err := m.Touch(now, addr(i), false)
				if err != nil {
					t.Fatal(err)
				}
				now = done
			}
		}
		return now - start
	}
	withPool := measure(4 << 20)
	without := measure(0)
	if withPool >= without {
		t.Fatalf("compressed tier (%v) not faster than remote-only (%v)", withPool, without)
	}
}

func TestCompressedTierOverflowsToStore(t *testing.T) {
	// A pool of ~4 compressed pages overflows under 32 evictions; displaced
	// pages must land in the store and stay readable.
	m := compressedMonitor(t, 2, 2*PageSize)
	now := time.Duration(0)
	for i := 0; i < 32; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		// Half-dense pages: compressible enough for the pool (ratio ≈ 0.5)
		// but big enough that a 2-page pool holds only ~4 of them.
		for j := 0; j < PageSize/2; j++ {
			data[j] = byte(i + j + 1)
		}
		data[0] = byte(i + 1)
	}
	st, _ := m.CompressStats()
	if st.Overflowed == 0 {
		t.Fatal("tiny pool never overflowed")
	}
	for i := 0; i < 32; i++ {
		data, done, err := m.Touch(now, addr(i), false)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		now = done
		if data[0] != byte(i+1) {
			t.Fatalf("page %d corrupted through overflow", i)
		}
	}
}

func TestIncompressiblePagesBypassTier(t *testing.T) {
	m := compressedMonitor(t, 2, 1<<20)
	now := time.Duration(0)
	for i := 0; i < 8; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		for j := range data {
			data[j] = byte(i + j*7 + 1) // dense, incompressible
		}
	}
	if now, err := m.Drain(now); err != nil {
		t.Fatal(err)
	} else {
		_ = now
	}
	st, _ := m.CompressStats()
	if st.Rejected == 0 {
		t.Fatal("dense pages were never rejected by the tier")
	}
	if m.cfg.Store.Stats().Puts == 0 {
		t.Fatal("rejected pages never reached the store")
	}
}

func TestCompressedTierDiscard(t *testing.T) {
	m := compressedMonitor(t, 2, 1<<20)
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		_, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	before, _ := m.CompressStats()
	if before.PoolBytes == 0 {
		t.Fatal("setup: empty pool")
	}
	// Discard every page; the pool must empty out.
	for i := 0; i < 6; i++ {
		m.Discard(addr(i))
	}
	after, _ := m.CompressStats()
	if after.PoolBytes != 0 {
		t.Fatalf("pool holds %d bytes after discards", after.PoolBytes)
	}
}

func TestMigrationDrainsCompressedTier(t *testing.T) {
	store := ramcloud.New(ramcloud.DefaultParams(), 9)
	params := DefaultCompressParams(1 << 20)
	registry := kvstore.NewLocalRegistry()
	srcCfg := DefaultConfig(store, 4)
	srcCfg.Compress = &params
	src, err := NewMonitor(srcCfg, registry, "hyp-a")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitor(DefaultConfig(store, 4), registry, "hyp-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RegisterRange(testBase, 64*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 16; i++ {
		data, done, err := src.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = byte(i + 1)
	}
	image, now, err := src.ExportVM(now, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = dst.ImportVM(now, image); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		data, done, err := dst.Touch(now, addr(i), false)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		now = done
		if data[0] != byte(i+1) {
			t.Fatalf("page %d lost from the source's compressed pool", i)
		}
	}
}

// TestExportKeepsOtherVMsPooledPages exports one of two VMs sharing a tiered
// monitor: the export drains only its own pooled pages, so the other VM's
// stay in the pool and its next fault is a pool hit, not a store read.
func TestExportKeepsOtherVMsPooledPages(t *testing.T) {
	const stay, leave = 4242, 4343
	m := compressedMonitor(t, 4, 1<<20) // registers stay's range at testBase
	otherBase := uint64(testBase + 1024*PageSize)
	if _, err := m.RegisterRange(otherBase, 64*PageSize, leave); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	touch := func(a uint64, tag byte) {
		t.Helper()
		data, done, err := m.Touch(now, a, true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = tag
	}
	for i := 0; i < 8; i++ {
		touch(addr(i), byte(i+1))
	}
	for i := 0; i < 8; i++ {
		touch(otherBase+uint64(i)*PageSize, byte(i+101))
	}
	before, _ := m.CompressStats()
	if before.Stored < 8 {
		t.Fatalf("setup: %d pages pooled, want both VMs' evictions", before.Stored)
	}
	if _, now2, err := m.ExportVM(now, leave); err != nil {
		t.Fatal(err)
	} else {
		now = now2
	}
	after, _ := m.CompressStats()
	if after.PoolBytes == 0 || after.RawBytes != 8*PageSize {
		t.Fatalf("export of pid %d left %d bytes (%d raw) pooled, want pid %d's 8 pages", leave, after.PoolBytes, after.RawBytes, stay)
	}
	gets := m.cfg.Store.Stats().Gets
	data, _, err := m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatalf("page 0 reads %#x, want 0x1", data[0])
	}
	hits, _ := m.CompressStats()
	if hits.Hits != after.Hits+1 || m.cfg.Store.Stats().Gets != gets {
		t.Fatalf("refault of pid %d: tier hits %d -> %d, store gets %d -> %d; want a pool hit", stay, after.Hits, hits.Hits, gets, m.cfg.Store.Stats().Gets)
	}
}

// TestTierOverflowFlushesCounted: the pages the tier's overflow displaces
// enter the write list through the one enqueue, so the flushes they trigger
// count in Stats.Flushes as every other flush does. Half-filled pages
// through a one-page pool, two to a batch: every write-list flush is one the
// overflow triggered.
func TestTierOverflowFlushesCounted(t *testing.T) {
	cfg := dramCfg(4)
	cfg.WriteBatchSize = 2
	p := DefaultCompressParams(PageSize)
	cfg.Compress = &p
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	for i := 0; i < 64; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		fill(data, wordOf(i))
	}
	monitor, engine := m.Stats().Flushes, m.WritebackStats().Flushes
	if monitor != engine || engine != 29 {
		t.Fatalf("Stats().Flushes = %d, the write list flushed %d times; want both 29", monitor, engine)
	}
}

// TestExportTierFlushesCounted: an export drains the VM's pooled pages onto
// the write list through the one enqueue, so the flushes the drain triggers
// count in Stats.Flushes too. 32 half-filled pages on a 4-page monitor with
// a 64-page pool leave 28 pooled; the export's four evictions and its tier
// drain flush two pages at a time.
func TestExportTierFlushesCounted(t *testing.T) {
	cfg := dramCfg(4)
	cfg.WriteBatchSize = 2
	p := DefaultCompressParams(64 * PageSize)
	cfg.Compress = &p
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	for i := 0; i < 32; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		fill(data, wordOf(i))
	}
	if _, _, err := m.ExportVM(now, 4242); err != nil {
		t.Fatal(err)
	}
	monitor, engine := m.Stats().Flushes, m.WritebackStats().Flushes
	if monitor != engine || engine != 16 {
		t.Fatalf("Stats().Flushes = %d, the write list flushed %d times; want both 16", monitor, engine)
	}
}
