package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
)

const testBase = 0x7f00_0000_0000

func addr(i int) uint64 { return testBase + uint64(i)*PageSize }

// newMonitor builds a monitor over a DRAM store with one registered VM range.
func newMonitor(t *testing.T, cfg Config, rangePages int) *Monitor {
	t.Helper()
	m, err := NewMonitor(cfg, nil, "hyp-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, uint64(rangePages)*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	return m
}

func dramCfg(capacity int) Config {
	return DefaultConfig(dram.New(dram.DefaultParams(), 9), capacity)
}

func ramcloudCfg(capacity int) Config {
	return DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 9), capacity)
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(Config{}, nil, ""); err == nil {
		t.Fatal("nil store accepted")
	}
	cfg := dramCfg(0)
	if _, err := NewMonitor(cfg, nil, ""); err == nil {
		t.Fatal("zero capacity accepted")
	}
	cfg = dramCfg(16)
	cfg.Workers = -3
	if _, err := NewMonitor(cfg, nil, ""); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Workers = -3: err = %v, want ErrBadConfig", err)
	}
	// Zero is the documented default, the serial monitor.
	cfg.Workers = 0
	if m, err := NewMonitor(cfg, nil, ""); err != nil || m.Workers() != 1 {
		t.Fatalf("Workers = 0: err = %v, want a monitor of width 1", err)
	}
}

func TestFirstTouchUsesZeroPage(t *testing.T) {
	m := newMonitor(t, dramCfg(16), 64)
	data, done, err := m.Touch(0, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("fault cost nothing")
	}
	if !bytes.Equal(data, make([]byte, PageSize)) {
		t.Fatal("first touch did not produce zeroes")
	}
	st := m.Stats()
	if st.Faults != 1 || st.FirstTouch != 1 || st.RemoteReads != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// No store traffic for a first touch — that is the pagetracker's point.
	if m.cfg.Store.Stats().Gets != 0 {
		t.Fatal("first touch hit the store")
	}
}

func TestResidentAccessIsFree(t *testing.T) {
	m := newMonitor(t, dramCfg(16), 64)
	_, now, err := m.Touch(0, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	if done != now {
		t.Fatalf("resident access cost %v", done-now)
	}
	if m.Stats().Faults != 1 {
		t.Fatal("resident access faulted")
	}
}

func TestWriteDataSurvivesEvictionRoundTrip(t *testing.T) {
	m := newMonitor(t, dramCfg(4), 64)
	now := time.Duration(0)
	data, now, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0xCD}, PageSize))
	// Evict page 0 by faulting in more pages than capacity.
	for i := 1; i < 10; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if m.ResidentPages() > 4 {
		t.Fatalf("resident = %d > capacity", m.ResidentPages())
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	got, _, err := m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xCD || got[PageSize-1] != 0xCD {
		t.Fatal("page corrupted across evict/refault")
	}
}

func TestRefaultCountsRemoteReadOrSteal(t *testing.T) {
	m := newMonitor(t, dramCfg(2), 64)
	now := time.Duration(0)
	var err error
	for i := 0; i < 8; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	// Re-touch an evicted page.
	if _, now, err = m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.RemoteReads+st.Steals == 0 {
		t.Fatalf("refault did not read or steal: %+v", st)
	}
}

func TestStealShortcutsRoundTrips(t *testing.T) {
	// Small batch never flushes with capacity 2 and batch 64: every evicted
	// page sits on the write list, so a refault must steal, not read.
	cfg := dramCfg(2)
	cfg.WriteBatchSize = 64
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	var err error
	for i := 0; i < 4; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	gets0 := m.cfg.Store.Stats().Gets
	if _, now, err = m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Steals != 1 {
		t.Fatalf("steals = %d, want 1", m.Stats().Steals)
	}
	if m.cfg.Store.Stats().Gets != gets0 {
		t.Fatal("steal still read from the store")
	}
	_ = now
}

func TestStealDisabledReadsInsteadButMustWaitFlush(t *testing.T) {
	cfg := dramCfg(2)
	cfg.StealEnabled = false
	cfg.WriteBatchSize = 2 // flush quickly so the store has the data
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	var err error
	for i := 0; i < 6; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if _, now, err = m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Steals != 0 {
		t.Fatal("steal happened despite being disabled")
	}
	if m.Stats().RemoteReads == 0 {
		t.Fatal("no remote read")
	}
	_ = now
}

func TestAsyncWriteKeepsWritesOffCriticalPath(t *testing.T) {
	// Compare the cost of an eviction-heavy workload with sync vs async
	// writeback on the high-latency RAMCloud store.
	run := func(async bool) time.Duration {
		cfg := ramcloudCfg(2)
		cfg.AsyncWrite = async
		cfg.AsyncRead = false
		m := newMonitor(t, cfg, 256)
		now := time.Duration(0)
		var err error
		for i := 0; i < 100; i++ {
			if _, now, err = m.Touch(now, addr(i), true); err != nil {
				t.Fatal(err)
			}
		}
		return now
	}
	sync, async := run(false), run(true)
	if async >= sync {
		t.Fatalf("async writeback (%v) not faster than sync (%v)", async, sync)
	}
}

func TestAsyncReadOverlapsEviction(t *testing.T) {
	// With refault-heavy traffic on RAMCloud, async read should beat sync
	// by roughly the overlapped eviction+bookkeeping per fault.
	run := func(asyncRead bool) time.Duration {
		cfg := ramcloudCfg(2)
		cfg.AsyncRead = asyncRead
		cfg.StealEnabled = false
		cfg.WriteBatchSize = 1 // flush immediately so refaults read remotely
		m := newMonitor(t, cfg, 256)
		now := time.Duration(0)
		var err error
		for i := 0; i < 8; i++ {
			if _, now, err = m.Touch(now, addr(i), true); err != nil {
				t.Fatal(err)
			}
		}
		start := now
		for round := 0; round < 20; round++ {
			for i := 0; i < 8; i++ {
				if _, now, err = m.Touch(now, addr(i), false); err != nil {
					t.Fatal(err)
				}
			}
		}
		return now - start
	}
	sync, async := run(false), run(true)
	if async >= sync {
		t.Fatalf("async read (%v) not faster than sync (%v)", async, sync)
	}
}

func TestLRUEvictsInsertionOrder(t *testing.T) {
	// §V-A: the list order never changes after insertion — re-touching a
	// resident page must NOT save it from eviction.
	m := newMonitor(t, dramCfg(3), 64)
	now := time.Duration(0)
	var err error
	for i := 0; i < 3; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	// Touch page 0 many times (resident: the monitor never sees it).
	for j := 0; j < 50; j++ {
		if _, now, err = m.Touch(now, addr(0), false); err != nil {
			t.Fatal(err)
		}
	}
	// One more distinct page: the victim must be page 0 (oldest inserted).
	if _, now, err = m.Touch(now, addr(3), true); err != nil {
		t.Fatal(err)
	}
	if m.lru.Contains(addr(0)) {
		t.Fatal("oldest page survived; LRU is not insertion-ordered")
	}
	if !m.lru.Contains(addr(1)) || !m.lru.Contains(addr(2)) {
		t.Fatal("wrong victim evicted")
	}
}

func TestResizeShrinksFootprint(t *testing.T) {
	m := newMonitor(t, dramCfg(64), 128)
	now := time.Duration(0)
	var err error
	for i := 0; i < 64; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if m.ResidentPages() != 64 {
		t.Fatalf("resident = %d", m.ResidentPages())
	}
	done, err := m.Resize(now, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.ResidentPages() != 8 {
		t.Fatalf("resident after shrink = %d", m.ResidentPages())
	}
	if done <= now {
		t.Fatal("shrink eviction cost nothing")
	}
	if m.FootprintLimit() != 8 {
		t.Fatalf("FootprintLimit = %d", m.FootprintLimit())
	}
	// Grow back: instant, and evicted pages refault fine.
	if _, err := m.Resize(done, 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Touch(done, addr(0), false); err != nil {
		t.Fatal(err)
	}
}

func TestResizeValidation(t *testing.T) {
	m := newMonitor(t, dramCfg(4), 16)
	if _, err := m.Resize(0, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func TestDiscardForgetsPage(t *testing.T) {
	m := newMonitor(t, dramCfg(16), 64)
	data, now, err := m.Touch(0, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0xEE}, PageSize))
	m.Discard(addr(0))
	if m.ResidentPages() != 0 {
		t.Fatalf("resident = %d after discard", m.ResidentPages())
	}
	// Next touch is a fresh first-touch: zeroes, not 0xEE.
	got, _, err := m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("discarded page kept stale contents")
	}
	if m.Stats().FirstTouch != 2 {
		t.Fatalf("FirstTouch = %d, want 2", m.Stats().FirstTouch)
	}
}

func TestMultiVMSharedLRU(t *testing.T) {
	m, err := NewMonitor(dramCfg(8), nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	const vmA, vmB = 100, 200
	baseA, baseB := uint64(0x1000_0000), uint64(0x2000_0000)
	if _, err := m.RegisterRange(baseA, 64*PageSize, vmA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(baseB, 64*PageSize, vmB); err != nil {
		t.Fatal(err)
	}
	partA, _ := m.Partition(vmA)
	partB, _ := m.Partition(vmB)
	if partA == partB {
		t.Fatal("two VMs share a partition")
	}
	now := time.Duration(0)
	for i := 0; i < 8; i++ {
		if _, now, err = m.Touch(now, baseA+uint64(i)*PageSize, true); err != nil {
			t.Fatal(err)
		}
		if _, now, err = m.Touch(now, baseB+uint64(i)*PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	// The shared LRU bounds both VMs combined.
	if m.ResidentPages() > 8 {
		t.Fatalf("combined resident = %d > 8", m.ResidentPages())
	}
}

func TestUnregisterVMCleansUp(t *testing.T) {
	m, err := NewMonitor(dramCfg(8), nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, 16*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 12; i++ { // some evicted to store
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	if _, err := m.UnregisterVM(now, 4242); err != nil {
		t.Fatal(err)
	}
	if m.ResidentPages() != 0 {
		t.Fatalf("resident = %d after unregister", m.ResidentPages())
	}
	if _, ok := m.Partition(4242); ok {
		t.Fatal("partition not released")
	}
	if _, err := m.UnregisterVM(now, 4242); err == nil {
		t.Fatal("double unregister succeeded")
	}
}

func TestProfilerRecordsTableIOps(t *testing.T) {
	cfg := ramcloudCfg(4)
	cfg.AsyncRead = false // synchronous profile, as Table I specifies
	cfg.AsyncWrite = false
	m := newMonitor(t, cfg, 256)
	now := time.Duration(0)
	var err error
	for i := 0; i < 32; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 16; i++ {
			if _, now, err = m.Touch(now, addr(i), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range []string{
		OpInsertPageHash, OpInsertLRUCache, OpUffdZeroPage,
		OpUffdRemap, OpUffdCopy, OpReadPage, OpWritePage, OpUpdatePageCache,
	} {
		s := m.Profiler().Sample(op)
		if s == nil || s.Len() == 0 {
			t.Fatalf("op %s never recorded", op)
		}
	}
}

func TestReadPageProfileNearTableI(t *testing.T) {
	cfg := ramcloudCfg(4)
	cfg.AsyncRead = false
	cfg.AsyncWrite = false
	m := newMonitor(t, cfg, 512)
	now := time.Duration(0)
	var err error
	for i := 0; i < 64; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 64; i++ {
			if _, now, err = m.Touch(now, addr(i), false); err != nil {
				t.Fatal(err)
			}
			now += 50 * time.Microsecond
		}
	}
	s := m.Profiler().Sample(OpReadPage)
	avg := s.Mean()
	if avg < 13*time.Microsecond || avg > 20*time.Microsecond {
		t.Fatalf("READ_PAGE avg = %v, want ≈15.6µs (Table I)", avg)
	}
}

func TestFaultLatencySink(t *testing.T) {
	m := newMonitor(t, dramCfg(16), 64)
	var got []time.Duration
	m.SetFaultLatencySink(func(d time.Duration) { got = append(got, d) })
	now := time.Duration(0)
	var err error
	for i := 0; i < 5; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d faults", len(got))
	}
	for _, d := range got {
		if d <= 0 {
			t.Fatal("non-positive fault latency")
		}
	}
}

func TestEvictWithCopyAblation(t *testing.T) {
	cfg := dramCfg(2)
	cfg.EvictWithCopy = true
	m := newMonitor(t, cfg, 64)
	now := time.Duration(0)
	data, now, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0x11}, PageSize))
	for i := 1; i < 6; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 {
		t.Fatal("copy-evicted page corrupted")
	}
}

func TestRegisterRangeUnknownOverlap(t *testing.T) {
	m := newMonitor(t, dramCfg(4), 16)
	if _, err := m.RegisterRange(testBase, 16*PageSize, 999); err == nil {
		t.Fatal("overlapping registration accepted")
	}
}

func TestHotplugSecondRangeSamePID(t *testing.T) {
	m := newMonitor(t, dramCfg(64), 16)
	// Hotplug: extra range for the same VM shares the partition.
	if _, err := m.RegisterRange(testBase+16*PageSize*4, 16*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	p1, _ := m.Partition(4242)
	now := time.Duration(0)
	var err error
	if _, now, err = m.Touch(now, testBase+16*PageSize*4, true); err != nil {
		t.Fatal(err)
	}
	p2, _ := m.Partition(4242)
	if p1 != p2 {
		t.Fatal("hotplug changed the partition")
	}
	_ = now
}

func TestStoreKeysUseVMPartition(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 1)
	cfg.WriteBatchSize = 1
	m, err := NewMonitor(cfg, nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, 16*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	part, _ := m.Partition(4242)
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	// Evicted pages must be stored under this VM's partition keys.
	key := kvstore.MakeKey(addr(0), part)
	if _, _, err := store.Get(now, key); err != nil {
		t.Fatalf("page not under partitioned key: %v", err)
	}
}

// TestWindowlessReadUnchanged pins the overlapped read without a readahead
// window sample for sample: same seed, same monitor counters, same store
// traffic and the same resume time for every one of 5 000 faults. The
// counters and store traffic were recorded by this test at commit d91bff6,
// the last with a separate windowless body. The last resume and the FNV-1a
// hash of every resume time were re-recorded at the child of 3ed9cf1 that
// draws each normal from 16-bit lanes and each tail from its decision word:
// that commit moved the random stream, and with it only the timing.
func TestWindowlessReadUnchanged(t *testing.T) {
	for name, tc := range map[string]struct {
		store  kvstore.Store
		stats  Stats
		traf   kvstore.Stats
		end    time.Duration
		resume uint64
	}{
		"dram": {
			store: dram.New(dram.DefaultParams(), 9),
			stats: Stats{Faults: 5000, FirstTouch: 128, RemoteReads: 3975, Steals: 897, Evictions: 4968, Flushes: 127},
			traf:  kvstore.Stats{Gets: 3975, Puts: 4064, MultiPuts: 127, BytesStored: 524288},
			end:   143197494, resume: 0xc7aac5ad0f72e784,
		},
		"ramcloud": {
			store: ramcloud.New(ramcloud.DefaultParams(), 9),
			stats: Stats{Faults: 5000, FirstTouch: 128, RemoteReads: 3975, Steals: 897, InFlightWaits: 100, Evictions: 4968, Flushes: 127},
			traf:  kvstore.Stats{Gets: 3975, Puts: 4064, MultiPuts: 127, BytesStored: 524288},
			end:   161985919, resume: 0x45daf164e04c5f74,
		},
	} {
		m := newMonitor(t, DefaultConfig(tc.store, 32), 128)
		rng := clock.NewRand(0xfa17)
		now, resume := time.Duration(0), uint64(14695981039346656037)
		for m.Stats().Faults < 5000 {
			faults := m.Stats().Faults
			_, done, err := m.Touch(now, addr(rng.Intn(128)), rng.Intn(2) == 0)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if m.Stats().Faults != faults {
				resume = (resume ^ uint64(done)) * 1099511628211
			}
		}
		if got := m.Stats(); got != tc.stats {
			t.Errorf("%s: monitor stats %+v, recorded %+v", name, got, tc.stats)
		}
		if got := tc.store.Stats(); got != tc.traf {
			t.Errorf("%s: store stats %+v, recorded %+v", name, got, tc.traf)
		}
		if now != tc.end || resume != tc.resume {
			t.Errorf("%s: last resume at %d, resume hash %#x; recorded %d, %#x", name, now, resume, tc.end, tc.resume)
		}
	}
}
