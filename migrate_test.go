package fluidmem

import (
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/vm"
)

// migrationPair builds source and destination machines over a shared
// RAMCloud store and registry.
func migrationPair(t *testing.T) (*Machine, *Machine) {
	t.Helper()
	store := ramcloud.New(ramcloud.DefaultParams(), 99)
	registry := kvstore.NewLocalRegistry()
	src, err := NewMachine(MachineConfig{
		Mode:         ModeFluidMem,
		LocalMemory:  16 << 20,
		GuestMemory:  64 << 20,
		BootOS:       true,
		SharedStore:  store,
		Registry:     registry,
		HypervisorID: "hyp-a",
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMachine(MachineConfig{
		Mode:         ModeFluidMem,
		LocalMemory:  16 << 20,
		GuestMemory:  64 << 20,
		SharedStore:  store,
		Registry:     registry,
		HypervisorID: "hyp-b",
		Seed:         2, // distinct seed → distinct PID
	})
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestMigratePreservesGuestState(t *testing.T) {
	src, dst := migrationPair(t)
	heap, err := src.Alloc("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < heap.Pages(); i++ {
		if err := src.Write64(heap.Addr(uint64(i)*PageSize), uint64(i)^0xABCD); err != nil {
			t.Fatal(err)
		}
	}
	srcResident := src.ResidentPages()
	if srcResident == 0 {
		t.Fatal("setup: nothing resident")
	}

	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}

	// The destination starts near-empty (post-copy) and pages fault in.
	if dst.ResidentPages() >= srcResident {
		t.Fatalf("destination resident %d pages immediately; post-copy should lazy-load", dst.ResidentPages())
	}
	for i := 0; i < heap.Pages(); i++ {
		v, err := dst.Read64(heap.Addr(uint64(i) * PageSize))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if v != uint64(i)^0xABCD {
			t.Fatalf("page %d corrupted: %#x", i, v)
		}
	}
	// The migrated guest can keep allocating and the OS probes still work.
	if _, err := dst.Alloc("post-migration", 1<<20); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Probe(vm.SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Responded {
		t.Fatal("migrated VM does not answer SSH")
	}
}

func TestMigrateClockMonotonic(t *testing.T) {
	src, dst := migrationPair(t)
	seg, _ := src.Alloc("x", 1<<20)
	for i := 0; i < seg.Pages(); i++ {
		if err := src.Write64(seg.Addr(uint64(i)*PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	before := src.Now()
	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Now() <= before {
		t.Fatalf("destination clock %v not after source %v", dst.Now(), before)
	}
}

func TestMigrateRequiresSharedStore(t *testing.T) {
	src, _ := migrationPair(t)
	other, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		LocalMemory: 4 << 20,
		GuestMemory: 32 << 20,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Migrate(src, other); err == nil {
		t.Fatal("migration accepted without a shared store")
	}
}

func TestMigrateRequiresFluidMem(t *testing.T) {
	src, _ := migrationPair(t)
	swapDst, err := NewMachine(MachineConfig{
		Mode:        ModeSwap,
		LocalMemory: 4 << 20,
		GuestMemory: 32 << 20,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Migrate(src, swapDst); err == nil {
		t.Fatal("migration to a swap machine accepted")
	}
}

func TestMigrateRequiresFreshDestination(t *testing.T) {
	src, dst := migrationPair(t)
	// Dirty the destination.
	seg, _ := dst.Alloc("dirt", 1<<20)
	if err := dst.Write64(seg.Addr(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := Migrate(src, dst); err == nil {
		t.Fatal("migration into a used machine accepted")
	}
}

func TestMigrateRejectsSamePID(t *testing.T) {
	store := ramcloud.New(ramcloud.DefaultParams(), 1)
	registry := kvstore.NewLocalRegistry()
	mk := func(hyp string) *Machine {
		m, err := NewMachine(MachineConfig{
			Mode:         ModeFluidMem,
			LocalMemory:  4 << 20,
			GuestMemory:  16 << 20,
			SharedStore:  store,
			Registry:     registry,
			HypervisorID: hyp,
			Seed:         7, // same seed → same PID
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := Migrate(mk("a"), mk("b")); err == nil {
		t.Fatal("same-PID migration accepted")
	}
}

// flakyStore fails every MultiPut while down is set.
type flakyStore struct {
	kvstore.Store
	down bool
}

var errFlaky = errors.New("store down")

func (s *flakyStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if s.down {
		return now, errFlaky
	}
	return s.Store.MultiPut(now, keys, pages)
}

// TestFailedMigrateCanBeRetried: an export that fails on a store write
// leaves the guest running on the source, its clock charged, and the
// destination untouched; once the store heals, Migrate simply runs again.
func TestFailedMigrateCanBeRetried(t *testing.T) {
	store := &flakyStore{Store: ramcloud.New(ramcloud.DefaultParams(), 99)}
	registry := kvstore.NewLocalRegistry()
	machine := func(id string, seed uint64, boot bool) *Machine {
		m, err := NewMachine(MachineConfig{
			Mode: ModeFluidMem, LocalMemory: 4 << 20, GuestMemory: 32 << 20, BootOS: boot,
			SharedStore: store, Registry: registry, HypervisorID: id, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src, dst := machine("hyp-a", 1, true), machine("hyp-b", 2, false)
	heap, err := src.Alloc("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	word := func(i, round int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 ^ uint64(round) }
	writeAll := func(m *Machine, round int) {
		t.Helper()
		for i := 0; i < heap.Pages(); i++ {
			if err := m.Write64(heap.Addr(uint64(i)*PageSize), word(i, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAll := func(m *Machine, round int) {
		t.Helper()
		for i := 0; i < heap.Pages(); i++ {
			if v, err := m.Read64(heap.Addr(uint64(i) * PageSize)); err != nil || v != word(i, round) {
				t.Fatalf("page %d reads %#x (err %v), want %#x", i, v, err, word(i, round))
			}
		}
	}
	writeAll(src, 1)
	dstPID, dstNow, before := dst.vm.Config().PID, dst.Now(), src.Now()

	store.down = true
	if err := Migrate(src, dst); !errors.Is(err, errFlaky) {
		t.Fatalf("Migrate err = %v, want the failed store write", err)
	}
	store.down = false
	if src.vm == nil || dst.vm.Config().PID != dstPID || dst.Now() != dstNow {
		t.Fatal("a failed migration moved the guest or touched the destination")
	}
	if _, ok := dst.Monitor().Partition(dstPID); !ok {
		t.Fatal("a failed migration cleared the destination's VM")
	}
	if src.Now() <= before {
		t.Fatalf("source clock %v not charged for the failed export (was %v)", src.Now(), before)
	}
	checkAll(src, 1)
	writeAll(src, 2)

	if err := Migrate(src, dst); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if src.vm != nil {
		t.Fatal("the guest stayed on the source")
	}
	checkAll(dst, 2)
}
