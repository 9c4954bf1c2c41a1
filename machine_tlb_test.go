package fluidmem

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/graph500"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/vm"
)

// countingMonitor passes every call through to the monitor, counting
// Touches.
type countingMonitor struct {
	*core.Monitor
	touches int
}

func (c *countingMonitor) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	c.touches++
	return c.Monitor.Touch(now, addr, write)
}

// tlbSide is one of the two guests TestTLBInvisibleOnMonitor drives in lock
// step: a VM that starts on m and migrates to dst, over a store and registry
// the two share, with a counting monitor under it. A side that does not
// cache flushes its VM's TLB before every access, so every access reaches the
// monitor.
type tlbSide struct {
	m, dst     *Machine
	counter    *countingMonitor
	heap, plug *vm.Segment
	cache      bool
	touches    int // monitor calls made through earlier counters
}

func newTLBSide(t *testing.T, mcfg core.Config, local, pages int, cache bool) *tlbSide {
	t.Helper()
	store, registry := ramcloud.New(ramcloud.DefaultParams(), 107), kvstore.NewLocalRegistry()
	machine := func(id string, seed uint64) *Machine {
		mcfg := mcfg
		m, err := NewMachine(MachineConfig{
			LocalMemory: uint64(local) * PageSize, GuestMemory: uint64(pages) * PageSize, Monitor: &mcfg,
			SharedStore: store, Registry: registry, HypervisorID: id, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	s := &tlbSide{m: machine("hyp-a", 5), dst: machine("hyp-b", 6), cache: cache}
	s.rebind(t)
	var err error
	if s.heap, err = s.m.Alloc("heap", uint64(pages)*PageSize); err != nil {
		t.Fatal(err)
	}
	return s
}

// rebind puts a fresh counting monitor over the machine's monitor.
func (s *tlbSide) rebind(t *testing.T) {
	if s.counter != nil {
		s.touches += s.counter.touches
	}
	s.counter = &countingMonitor{Monitor: s.m.monitor}
	if err := s.m.vm.Rebind(s.counter); err != nil {
		t.Fatal(err)
	}
}

// addr is the address of word off of page, counting the hotplugged
// segment's pages after the heap's.
func (s *tlbSide) addr(page int, off uint64) uint64 {
	if n := s.heap.Pages(); page >= n {
		return s.plug.Addr(uint64(page-n)*PageSize + off)
	}
	return s.heap.Addr(uint64(page)*PageSize + off)
}

func (s *tlbSide) read(addr uint64) (uint64, error) {
	if !s.cache {
		s.m.vm.Flush()
	}
	return s.m.Read64(addr)
}

func (s *tlbSide) write(addr, val uint64) error {
	if !s.cache {
		s.m.vm.Flush()
	}
	return s.m.Write64(addr, val)
}

// TestTLBInvisibleOnMonitor drives two identical monitor-backed guests with
// the same seeded reads, writes, balloon discards, rebinds and resizes over
// four times the local pages, hotplugs memory and allocates it a third of
// the way in, and migrates both guests to a second hypervisor two thirds of
// the way in. One guest goes through the VM's TLB, the other caches nothing.
// Every word, completion time, access count and Stats must agree, with
// clean-page drop, zero-page elision and readahead each on and off, and the
// TLB must have spared monitor calls.
func TestTLBInvisibleOnMonitor(t *testing.T) {
	const local, pages, plugPages, steps = 64, 256, 64, 40000
	for variant := 0; variant < 8; variant++ {
		clean, elide, prefetch := variant&1 != 0, variant&2 != 0, variant&4 != 0
		t.Run(fmt.Sprintf("clean=%v/elide=%v/prefetch=%v", clean, elide, prefetch), func(t *testing.T) {
			mcfg := core.DefaultConfig(nil, local)
			mcfg.CleanPageDrop, mcfg.ElideZeroPages = clean, elide
			if prefetch {
				mcfg.PrefetchPages = 4
			}
			tlb, ref := newTLBSide(t, mcfg, local, pages, true), newTLBSide(t, mcfg, local, pages, false)
			sides := []*tlbSide{tlb, ref}
			rng := clock.NewRand(uint64(variant) + 11)
			// A BFS-like mix: most accesses go to a few hot pages (many TLB
			// entries live at once), the rest anywhere in the guest.
			span := pages
			hot := [8]int{}
			for i := range hot {
				hot[i] = rng.Intn(span)
			}
			var exported core.Stats
			for step := 0; step < steps; step++ {
				switch step {
				case steps / 3:
					for _, s := range sides {
						if err := s.m.Hotplug(plugPages * PageSize); err != nil {
							t.Fatal(err)
						}
						var err error
						if s.plug, err = s.m.Alloc("plug", plugPages*PageSize); err != nil {
							t.Fatal(err)
						}
					}
					span += plugPages
				case 2 * steps / 3:
					exported = *tlb.m.Stats().Monitor
					for _, s := range sides {
						if err := Migrate(s.m, s.dst); err != nil {
							t.Fatal(err)
						}
						s.m = s.dst
						s.rebind(t)
					}
				}
				page := hot[rng.Intn(len(hot))]
				if rng.Intn(16) == 0 {
					page = rng.Intn(span)
					hot[rng.Intn(len(hot))] = page
				}
				off := uint64(rng.Intn(PageSize/8)) * 8
				switch op := rng.Intn(400); {
				case op < 10:
					for _, s := range sides {
						s.m.vm.Backing().Discard(s.addr(page, off))
					}
				case op == 10:
					for _, s := range sides {
						s.rebind(t)
					}
				case op < 20:
					capacity := local/4 + rng.Intn(local)
					for _, s := range sides {
						if err := s.m.ResizeFootprint(capacity); err != nil {
							t.Fatal(err)
						}
					}
				case op < 160:
					val := rng.Uint64()
					if rng.Intn(3) == 0 {
						val = 0 // keep some pages all zero for elision
					}
					err, refErr := tlb.write(tlb.addr(page, off), val), ref.write(ref.addr(page, off), val)
					if err != nil || refErr != nil {
						t.Fatalf("step %d: write errors %v / %v", step, err, refErr)
					}
				default:
					got, err := tlb.read(tlb.addr(page, off))
					want, refErr := ref.read(ref.addr(page, off))
					if err != nil || refErr != nil {
						t.Fatalf("step %d: read errors %v / %v", step, err, refErr)
					}
					if got != want {
						t.Fatalf("step %d: read %#x, uncached %#x", step, got, want)
					}
				}
				if tlb.m.Now() != ref.m.Now() {
					t.Fatalf("step %d: now %v, uncached %v", step, tlb.m.Now(), ref.m.Now())
				}
				if step%1000 == 999 && !reflect.DeepEqual(tlb.m.Stats(), ref.m.Stats()) {
					t.Fatalf("step %d: stats %+v, uncached %+v", step, tlb.m.Stats(), ref.m.Stats())
				}
			}
			st, refSt := tlb.m.Stats(), ref.m.Stats()
			if !reflect.DeepEqual(st, refSt) {
				t.Fatalf("stats %+v, uncached %+v", st, refSt)
			}
			r, w := tlb.m.vm.AccessCounts()
			if rr, rw := ref.m.vm.AccessCounts(); r != rr || w != rw {
				t.Fatalf("access counts %d/%d, uncached %d/%d", r, w, rr, rw)
			}
			// The TLB must have served hits the uncached guest sent on.
			calls, refCalls := tlb.touches+tlb.counter.touches, ref.touches+ref.counter.touches
			if calls >= refCalls {
				t.Fatalf("monitor calls %d through the TLB, %d uncached", calls, refCalls)
			}
			for _, mon := range []*core.Stats{&exported, st.Monitor} {
				if mon.RemoteReads == 0 || mon.Evictions == 0 || (clean && mon.CleanDropped == 0) ||
					(elide && mon.ZeroElided == 0) || (prefetch && mon.Prefetches == 0) {
					t.Fatalf("drive never exercised its features: %+v", *mon)
				}
			}
		})
	}
}

// BenchmarkGraph500 is one Graph500 run at scale 16 — generation, CSR
// construction and six validated BFS traversals — on a booted
// RAMCloud-backed machine with 16 MiB of local memory, the shape of the
// benchmark's bypass workload: about one access in three thousand faults,
// the rest are resident-page hits. `make profile-graph500` profiles it.
func BenchmarkGraph500(b *testing.B) {
	const scale, local = 16, 16 << 20
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(MachineConfig{
			Backend: BackendRAMCloud, LocalMemory: local, GuestMemory: graph500.MemoryBytes(scale, 16)*2 + local,
			BootOS: true, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := graph500.DefaultConfig(scale)
		cfg.Roots, cfg.Seed, cfg.Validate = 6, uint64(i)+1, true
		if _, _, err := graph500.Run(m.Now(), m.VM(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBackingCallsPerAccess pins how many guest accesses reach the monitor
// on a quick-scale Graph500 run (scale 11, three validated roots) on a booted
// RAMCloud-backed machine with 256 KiB of local memory. One access in
// seventeen faults there, and a call that is not a fault is a TLB miss:
// since a shootdown invalidates one page, not the TLB, the calls stay within
// a few hundred of the faults. When every install and eviction flushed the
// whole TLB, 0.157 calls per access reached the monitor.
func TestBackingCallsPerAccess(t *testing.T) {
	const scale, local = 11, 256 << 10
	m, err := NewMachine(MachineConfig{
		Backend: BackendRAMCloud, LocalMemory: local, GuestMemory: graph500.MemoryBytes(scale, 16)*2 + local,
		BootOS: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingMonitor{Monitor: m.monitor}
	if err := m.vm.Rebind(counter); err != nil {
		t.Fatal(err)
	}
	cfg := graph500.DefaultConfig(scale)
	cfg.Roots, cfg.Seed, cfg.Validate = 3, 1, true
	if _, _, err := graph500.Run(m.Now(), m.VM(), cfg); err != nil {
		t.Fatal(err)
	}
	r, w := m.vm.AccessCounts()
	perAccess := float64(counter.touches) / float64(r+w)
	if perAccess > 0.06 {
		t.Errorf("%d monitor calls for %d accesses = %.4f per access, want ≤ 0.06", counter.touches, r+w, perAccess)
	}
	t.Logf("%d monitor calls, %d faults, %d accesses: %.4f calls per access", counter.touches, m.monitor.Stats().Faults, r+w, perAccess)
}
