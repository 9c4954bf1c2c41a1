package fluidmem

import (
	"testing"

	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/storetest"
)

// closedLoop is the closed-loop guest of the repository benchmark's
// cluster_failover and pmbench_ramcloud workloads, scaled down: uniform
// random pages of a working set four times local memory, a share of them
// writes, and with zeroEvery every zeroEvery-th page kept all-zero (its
// writes store 0), so zero elision has pages to elide. Every read is checked
// against a flat model of the last word written.
type closedLoop struct {
	tb        testing.TB
	m         *Machine
	base      uint64
	model     []uint64
	writes    int // writes per 100 accesses
	zeroEvery int
	rng       *clock.Rand
	seq       uint64
}

const (
	loopLocalPages = 512
	loopWSSPages   = 4 * loopLocalPages
)

// newClosedLoop allocates the working set on a machine built from cfg (its
// memory geometry filled in here) and populates it in address order.
func newClosedLoop(tb testing.TB, cfg MachineConfig, writes, zeroEvery int, seed uint64) *closedLoop {
	tb.Helper()
	cfg.LocalMemory = loopLocalPages * PageSize
	cfg.GuestMemory = loopWSSPages * PageSize * 5 / 4
	cfg.Seed = seed
	m, err := NewMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := m.Alloc("loop", loopWSSPages*PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	l := &closedLoop{tb: tb, m: m, base: seg.Addr(0), model: make([]uint64, loopWSSPages),
		writes: writes, zeroEvery: zeroEvery, rng: clock.NewRand(seed ^ 0x6c6f6f70)}
	for p := range l.model {
		l.access(p, !l.zero(p))
	}
	return l
}

func (l *closedLoop) zero(p int) bool { return l.zeroEvery != 0 && p%l.zeroEvery == l.zeroEvery-1 }

func (l *closedLoop) access(p int, write bool) {
	addr := l.base + uint64(p)*PageSize
	if write {
		var v uint64
		if !l.zero(p) {
			l.seq++
			v = l.seq
		}
		if err := l.m.Write64(addr, v); err != nil {
			l.tb.Fatal(err)
		}
		l.model[p] = v
		return
	}
	if v, err := l.m.Read64(addr); err != nil || v != l.model[p] {
		l.tb.Fatalf("page %d reads %d (err %v), want %d", p, v, err, l.model[p])
	}
}

func (l *closedLoop) run(n int) {
	for i := 0; i < n; i++ {
		l.access(l.rng.Intn(len(l.model)), l.rng.Intn(100) < l.writes)
	}
}

// clusterFailoverConfig is cluster_failover's machine: a 3-node 2-replica
// cluster pool behind the resilience layer, clean-page drop and zero elision
// on.
func clusterFailoverConfig() MachineConfig {
	mcfg := core.DefaultConfig(nil, 0)
	policy := resilience.DefaultPolicy()
	mcfg.Resilience = &policy
	mcfg.CleanPageDrop = true
	mcfg.ElideZeroPages = true
	return MachineConfig{Backend: BackendCluster, StoreNodes: 3, StoreReplicas: 2, Monitor: &mcfg}
}

// runFailover runs n measured accesses of the cluster_failover recipe on l:
// the node serving the guest's partition crashes a third of the way in, and
// the pool recovers at two thirds.
func runFailover(tb testing.TB, l *closedLoop, n int) {
	tb.Helper()
	pool := l.m.ClusterPool()
	part, _ := l.m.Monitor().Partition(l.m.VM().Config().PID)
	victim := ""
	for _, node := range pool.Committed().Nodes {
		if node.Slot == pool.Committed().Assign(part)[0] {
			victim = node.Name
		}
	}
	l.run(n / 3)
	if err := pool.Crash(l.m.Now(), victim); err != nil {
		tb.Fatal(err)
	}
	l.run(n / 3)
	if _, _, err := pool.Recover(l.m.Now()); err != nil {
		tb.Fatal(err)
	}
	l.run(n - 2*(n/3))
}

// TestPageCopiesPerRemoteRead pins how many 4 KiB host copies the descriptor
// makes per remote read. A store-backed install shares the read buffer and a
// steal adopts its frame, so only the pages the guest then writes are copied.
// On the cluster_failover recipe that is wp_faults/remote_reads, at most 0.15
// (every install was a copy once, ≥ 1.0). pmbench_ramcloud drops no clean
// page, but RAMCloud takes its own read buffer back, so a page evicted
// unwritten is not copied either, and a write fault takes the read buffer
// itself (kvstore.Reput's Take), so only a later first write to a page a
// read fault installed copies: 0.080, at most 0.15 (1.010 while every
// install copied, 0.579 while write faults copied).
func TestPageCopiesPerRemoteRead(t *testing.T) {
	measure := func(l *closedLoop, run func()) (copies, wp, reads float64) {
		mon := l.m.Monitor()
		c0, w0, r0 := mon.PageCopies(), mon.WPFaults(), mon.Stats().RemoteReads
		run()
		return float64(mon.PageCopies() - c0), float64(mon.WPFaults() - w0), float64(mon.Stats().RemoteReads - r0)
	}

	l := newClosedLoop(t, clusterFailoverConfig(), 10, 8, 1)
	l.run(20000)
	copies, wp, reads := measure(l, func() { runFailover(t, l, 60000) })
	if reads == 0 || copies/reads > 0.15 {
		t.Errorf("cluster_failover: %.0f page copies over %.0f remote reads = %.3f per read, want ≤ 0.15", copies, reads, copies/reads)
	}
	t.Logf("cluster_failover: %.3f page copies per remote read (WP faults per remote read %.3f)", copies/reads, wp/reads)

	l = newClosedLoop(t, MachineConfig{Backend: BackendRAMCloud}, 50, 0, 1)
	l.run(20000)
	copies, _, reads = measure(l, func() { l.run(60000) })
	if reads == 0 || copies/reads > 0.15 {
		t.Errorf("pmbench_ramcloud: %.0f page copies over %.0f remote reads = %.3f per read, want ≤ 0.15", copies, reads, copies/reads)
	}
	t.Logf("pmbench_ramcloud: %.3f page copies per remote read", copies/reads)
}

// TestMigrateCopiesNoSharedPage migrates a guest whose resident set mixes
// pages that share the store's read buffers with pages written since. The
// export evicts through the one eviction path, so it copies none of them:
// with clean drop a shared page is dropped, its store copy current; without
// it the page goes back to the store as the store's own buffer (the store
// declares kvstore.Reput). The store sits behind storetest's aliasing net,
// which scribbles over every buffer a write hands back, and every word must
// read back on the destination.
func TestMigrateCopiesNoSharedPage(t *testing.T) {
	for _, cleanDrop := range []bool{true, false} {
		name := "clean-drop"
		if !cleanDrop {
			name = "reput"
		}
		t.Run(name, func(t *testing.T) { migrateSharedPages(t, cleanDrop) })
	}
}

func migrateSharedPages(t *testing.T, cleanDrop bool) {
	store := storetest.Poison(t, ramcloud.New(ramcloud.DefaultParams(), 99))
	registry := kvstore.NewLocalRegistry()
	machine := func(id string, seed uint64) *Machine {
		mcfg := core.DefaultConfig(nil, 0)
		mcfg.CleanPageDrop = cleanDrop
		m, err := NewMachine(MachineConfig{
			Mode: ModeFluidMem, LocalMemory: 2 << 20, GuestMemory: 16 << 20,
			SharedStore: store, Registry: registry, HypervisorID: id, Seed: seed, Monitor: &mcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src, dst := machine("hyp-a", 1), machine("hyp-b", 2)
	heap, err := src.Alloc("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	word := func(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 | 1 }
	for i := 0; i < heap.Pages(); i++ {
		if err := src.Write64(heap.Addr(uint64(i)*PageSize), word(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Read the heap back so the resident set is store-backed and shared,
	// then rewrite every third resident page.
	for i := 0; i < heap.Pages(); i++ {
		if _, err := src.Read64(heap.Addr(uint64(i) * PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	rewritten := map[int]bool{}
	for i := 0; i < heap.Pages(); i++ {
		addr := heap.Addr(uint64(i) * PageSize)
		if src.Monitor().PageResident(addr) && i%3 == 0 {
			if err := src.Write64(addr+8, word(i)+1); err != nil {
				t.Fatal(err)
			}
			rewritten[i] = true
		}
	}
	shared := src.ResidentPages() - len(rewritten)
	if len(rewritten) == 0 || shared <= 0 || (src.Monitor().Stats().CleanDropped == 0) == cleanDrop {
		t.Fatalf("setup: %d resident pages rewritten, %d shared, %d clean drops; want both > 0 and drops only with clean drop",
			len(rewritten), shared, src.Monitor().Stats().CleanDropped)
	}

	copies := src.Monitor().PageCopies()
	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}
	if got := src.Monitor().PageCopies() - copies; got != 0 {
		t.Fatalf("export copied %d pages (%d shared), want none", got, shared)
	}
	for i := 0; i < heap.Pages(); i++ {
		addr := heap.Addr(uint64(i) * PageSize)
		if v, err := dst.Read64(addr); err != nil || v != word(i) {
			t.Fatalf("page %d word 0 reads %#x (err %v), want %#x", i, v, err, word(i))
		}
		want := uint64(0)
		if rewritten[i] {
			want = word(i) + 1
		}
		if v, err := dst.Read64(addr + 8); err != nil || v != want {
			t.Fatalf("page %d word 1 reads %#x (err %v), want %#x", i, v, err, want)
		}
	}
	store.Verify(dst.Now())
}

// BenchmarkClusterFailover is one repetition of the cluster_failover recipe
// per op: build the machine, populate, warm up, then 300 000 measured
// accesses across a crash and a recovery. Nearly every fault is a remote
// read whose page the guest never writes, so the install and the clean drop
// dominate. `make profile-cluster` profiles it.
func BenchmarkClusterFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := newClosedLoop(b, clusterFailoverConfig(), 10, 8, uint64(i)+1)
		l.run(100000)
		runFailover(b, l, 300000)
	}
}
