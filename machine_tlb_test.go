package fluidmem

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/graph500"
)

// oneEntryBacking puts the VM's access cache from before its TLB under the
// VM: the page touched last, served without a monitor call while the
// monitor's epoch stands (a write only if the fill was a write). Its own
// Epoch never repeats, so the TLB in front of it never hits and every
// access the guest makes reaches this cache.
type oneEntryBacking struct {
	mon          *core.Monitor
	valid, dirty bool
	page, epoch  uint64
	data         []byte
	ticks        uint64
	touches      int
}

func (c *oneEntryBacking) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	page := addr &^ uint64(PageSize-1)
	if c.valid && c.page == page && c.epoch == c.mon.Epoch() && (!write || c.dirty) {
		return c.data, now, nil
	}
	c.touches++
	data, done, err := c.mon.Touch(now, addr, write)
	if err != nil {
		return nil, done, err
	}
	c.valid, c.page, c.data, c.dirty, c.epoch = true, page, data, write, c.mon.Epoch()
	return data, done, nil
}

func (c *oneEntryBacking) Discard(addr uint64) { c.mon.Discard(addr) }
func (c *oneEntryBacking) ResidentPages() int  { return c.mon.ResidentPages() }
func (c *oneEntryBacking) Epoch() uint64       { c.ticks++; return c.ticks }
func (c *oneEntryBacking) rebind(m *Machine) error {
	c.valid = false
	return m.vm.Rebind(c)
}

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

// TestTLBInvisibleOnMonitor drives two identical monitor-backed machines
// with the same seeded reads, writes, balloon discards and rebinds over four
// times the local pages: one through the VM's TLB, one through the one-entry
// cache it replaced. Every word, completion time, access count and Stats
// must agree, with clean-page drop, zero-page elision and readahead each on
// and off.
func TestTLBInvisibleOnMonitor(t *testing.T) {
	const local, pages, steps = 64, 256, 12000
	for variant := 0; variant < 8; variant++ {
		clean, elide, prefetch := variant&1 != 0, variant&2 != 0, variant&4 != 0
		t.Run(fmt.Sprintf("clean=%v/elide=%v/prefetch=%v", clean, elide, prefetch), func(t *testing.T) {
			newMachine := func() *Machine {
				mcfg := core.DefaultConfig(nil, local)
				mcfg.CleanPageDrop, mcfg.ElideZeroPages = clean, elide
				if prefetch {
					mcfg.PrefetchPages = 4
				}
				m, err := NewMachine(MachineConfig{
					Backend: BackendRAMCloud, LocalMemory: local * PageSize, GuestMemory: pages * PageSize,
					Monitor: &mcfg, Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			tlb, ref := newMachine(), newMachine()
			counter := &countingMonitor{Monitor: tlb.monitor}
			if err := tlb.vm.Rebind(counter); err != nil {
				t.Fatal(err)
			}
			cache := &oneEntryBacking{mon: ref.monitor}
			if err := cache.rebind(ref); err != nil {
				t.Fatal(err)
			}
			tlbSeg, err := tlb.Alloc("heap", pages*PageSize)
			if err != nil {
				t.Fatal(err)
			}
			refSeg, err := ref.Alloc("heap", pages*PageSize)
			if err != nil {
				t.Fatal(err)
			}
			rng := clock.NewRand(uint64(variant) + 11)
			// A BFS-like mix: most accesses go to a few hot pages (many TLB
			// entries live at once), the rest anywhere in the heap.
			hot := [8]int{}
			for i := range hot {
				hot[i] = rng.Intn(pages)
			}
			for step := 0; step < steps; step++ {
				page := hot[rng.Intn(len(hot))]
				if rng.Intn(16) == 0 {
					page = rng.Intn(pages)
					hot[rng.Intn(len(hot))] = page
				}
				off := uint64(page)*PageSize + uint64(rng.Intn(PageSize/8))*8
				switch op := rng.Intn(40); {
				case op == 0:
					tlb.vm.Backing().Discard(tlbSeg.Addr(off))
					ref.vm.Backing().Discard(refSeg.Addr(off))
				case op == 1:
					if err := tlb.vm.Rebind(counter); err != nil {
						t.Fatal(err)
					}
					if err := cache.rebind(ref); err != nil {
						t.Fatal(err)
					}
				case op < 16:
					val := rng.Uint64()
					if rng.Intn(3) == 0 {
						val = 0 // keep some pages all zero for elision
					}
					err, refErr := tlb.Write64(tlbSeg.Addr(off), val), ref.Write64(refSeg.Addr(off), val)
					if err != nil || refErr != nil {
						t.Fatalf("step %d: write errors %v / %v", step, err, refErr)
					}
				default:
					got, err := tlb.Read64(tlbSeg.Addr(off))
					want, refErr := ref.Read64(refSeg.Addr(off))
					if err != nil || refErr != nil {
						t.Fatalf("step %d: read errors %v / %v", step, err, refErr)
					}
					if got != want {
						t.Fatalf("step %d: read %#x, one-entry cache %#x", step, got, want)
					}
				}
				if tlb.Now() != ref.Now() {
					t.Fatalf("step %d: now %v, one-entry cache %v", step, tlb.Now(), ref.Now())
				}
				if step%1000 == 999 && !reflect.DeepEqual(tlb.Stats(), ref.Stats()) {
					t.Fatalf("step %d: stats %+v, one-entry cache %+v", step, tlb.Stats(), ref.Stats())
				}
			}
			st, refSt := tlb.Stats(), ref.Stats()
			if !reflect.DeepEqual(st, refSt) {
				t.Fatalf("stats %+v, one-entry cache %+v", st, refSt)
			}
			r, w := tlb.vm.AccessCounts()
			if rr, rw := ref.vm.AccessCounts(); r != rr || w != rw {
				t.Fatalf("access counts %d/%d, one-entry cache %d/%d", r, w, rr, rw)
			}
			// The TLB must have served hits the one-entry cache sent on.
			if counter.touches >= cache.touches {
				t.Fatalf("monitor calls %d through the TLB, %d through the one-entry cache", counter.touches, cache.touches)
			}
			mon := st.Monitor
			if mon.RemoteReads == 0 || mon.Evictions == 0 || (clean && mon.CleanDropped == 0) ||
				(elide && mon.ZeroElided == 0) || (prefetch && mon.Prefetches == 0) {
				t.Fatalf("drive never exercised its features: %+v", *mon)
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
