package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/storetest"
)

// scheduledStore fails writes (Put and MultiPut alike) on a schedule while
// armed: the n-th write since arming fails if bit n of the schedule is set.
// With noTake it refuses every take, so a monitor over it installs every
// store read shared.
type scheduledStore struct {
	kvstore.Store
	armed    bool
	schedule uint8
	calls    int
	noTake   bool
}

var errScheduled = errors.New("scheduled write failure")

// fails reports whether the next write fails, counting it.
func (s *scheduledStore) fails() bool {
	if !s.armed {
		return false
	}
	n := s.calls
	s.calls++
	return n < 8 && s.schedule&(1<<n) != 0
}

func (s *scheduledStore) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if s.fails() {
		return now, errScheduled
	}
	return s.Store.Put(now, key, page)
}

func (s *scheduledStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if s.fails() {
		return now, errScheduled
	}
	return s.Store.MultiPut(now, keys, pages)
}

// Reput forwards the wrapped store's re-put clause.
func (s *scheduledStore) Reput() bool { return storetest.Reputs(s.Store) }

// Take forwards the wrapped store's take clause, unless noTake hides it.
func (s *scheduledStore) Take(key kvstore.Key, buf []byte) bool {
	r, ok := s.Store.(kvstore.Reput)
	return !s.noTake && ok && r.Take(key, buf)
}

func (s *scheduledStore) arm(schedule uint8) { s.armed, s.schedule, s.calls = true, schedule, 0 }

// FuzzMigrate moves two VMs back and forth between two monitors over one
// store whose writes fail on a fuzzed schedule during each export. Guest
// writes and reads, exports, imports, retries and teardowns interleave. A
// write or read checks the word it touches; after every export, import or
// teardown every word of both VMs is held to a flat map (a full check after
// a write would flush the dirty pages the next export has to push). A failed
// export must leave its VM registered and runnable where it was. The store
// sits behind storetest's aliasing net.
//
// Input: the first byte picks the monitor options (bit 0 zero elision, bit 1
// clean drop, bit 2 the compressed tier, bit 3 synchronous write-back, bit 4
// no stealing, bit 5 no take: the store refuses to give its read buffers
// away, so a write fault installs shared and copies as the guest writes);
// then each op is two bytes, op and arg. A write fills the first half of a
// page with its value's bytes.
func FuzzMigrate(f *testing.F) {
	// Write both VMs; VM 1's export fails at its drain, VM 0 migrates, and
	// VM 1's retry follows it.
	f.Add([]byte{0, 0x04, 0, 0x08, 1, 0x0c, 2, 0x02, 0x03, 0x01, 0, 0x02, 0x00, 0x02, 0x01})
	// Zero elision and the tier: zero and non-zero pages, VM 0's export
	// fails at an eviction's flush, then both VMs migrate there and back.
	f.Add([]byte{5, 0x00, 0, 0x04, 2, 0x08, 4, 0x0c, 6, 0x02, 0x02, 0x02, 0x01, 0x02, 0x00, 0x02, 0x01})
	// Clean drop: a write and reads, VM 1 torn down and its export failing
	// at the first flush, then VM 0 migrates.
	f.Add([]byte{2, 0x04, 0, 0x01, 0, 0x01, 2, 0x03, 1, 0x05, 3, 0x02, 0x07, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const pages, steps = 8, 64
		opts := raw[0]
		raw = raw[1:]
		sched := &scheduledStore{Store: dram.New(dram.DefaultParams(), uint64(opts)), noTake: opts&32 != 0}
		store := storetest.Poison(t, sched)
		registry := kvstore.NewLocalRegistry()
		cfg := DefaultConfig(store, 4)
		cfg.WriteBatchSize = 3
		cfg.ElideZeroPages = opts&1 != 0
		cfg.CleanPageDrop = opts&2 != 0
		cfg.AsyncWrite = opts&8 == 0
		cfg.StealEnabled = opts&16 == 0
		if opts&4 != 0 {
			// Written pages are half literal: the pool holds three.
			half := make([]byte, PageSize)
			fill(half, 1)
			params := DefaultCompressParams(uint64(3 * len(compressPage(half))))
			cfg.Compress = &params
		}
		var mons [2]*Monitor
		for i, id := range []string{"hyp-a", "hyp-b"} {
			m, err := NewMonitor(cfg, registry, id)
			if err != nil {
				t.Fatal(err)
			}
			mons[i] = m
		}
		bases := [2]uint64{testBase, testBase + 1<<20}
		pids := [2]int{1, 2}
		var on [2]int // the monitor each VM runs on
		register := func(vm int) {
			if _, err := mons[on[vm]].RegisterRange(bases[vm], pages*PageSize, pids[vm]); err != nil {
				t.Fatal(err)
			}
		}
		register(0)
		register(1)
		var model [2][pages]uint64
		now := time.Duration(0)
		touch := func(vm, page int, write bool) []byte {
			t.Helper()
			m, a := mons[on[vm]], bases[vm]+uint64(page)*PageSize
			e, _ := m.pages.byAddr(a, false)
			queued, steals := m.pages.recs[*e&entSlot].state&recQueued != 0, m.Stats().Steals
			data, done, err := m.Touch(now, a, write)
			if err != nil {
				t.Fatalf("VM %d page %d on monitor %d: %v", vm, page, on[vm], err)
			}
			now = done
			// With stealing, the refault of a queued page is a steal.
			if queued && cfg.StealEnabled && m.Stats().Steals != steals+1 {
				t.Fatalf("VM %d page %d on monitor %d: queued page not stolen", vm, page, on[vm])
			}
			if got := binary.LittleEndian.Uint64(data); got != model[vm][page] {
				t.Fatalf("VM %d page %d on monitor %d reads %#x, want %#x", vm, page, on[vm], got, model[vm][page])
			}
			return data
		}
		checkAll := func() {
			t.Helper()
			for vm := range model {
				for page := range model[vm] {
					touch(vm, page, false)
				}
			}
		}
		for step := 0; step+1 < len(raw) && step < 2*steps; step += 2 {
			op, arg := raw[step], raw[step+1]
			vm := int(arg & 1)
			switch op % 4 {
			case 0: // write; a value of zero leaves the page all zeroes
				page, v := int(arg>>1)%pages, uint64(op>>2)*0x0101010101010101
				fill(touch(vm, page, true), v)
				model[vm][page] = v
				continue
			case 1: // read
				touch(vm, int(arg>>1)%pages, false)
				continue
			case 2: // migrate, writes failing on the schedule in arg's upper bits
				from := mons[on[vm]]
				sched.arm(arg >> 1)
				img, done, err := from.ExportVM(now, pids[vm])
				sched.armed = false
				now = done
				if err != nil {
					if !errors.Is(err, errScheduled) {
						t.Fatalf("export of VM %d: %v", vm, err)
					}
					if _, ok := from.Partition(pids[vm]); !ok {
						t.Fatalf("failed export of VM %d let go of it", vm)
					}
					break
				}
				on[vm] = 1 - on[vm]
				if now, err = mons[on[vm]].ImportVM(now, img); err != nil {
					t.Fatalf("import of VM %d: %v", vm, err)
				}
			case 3: // teardown and a fresh registration: the VM's memory is zero again
				var err error
				if now, err = mons[on[vm]].UnregisterVM(now, pids[vm]); err != nil {
					t.Fatalf("teardown of VM %d: %v", vm, err)
				}
				register(vm)
				model[vm] = [pages]uint64{}
			}
			checkAll()
		}
		checkAll()
		for _, m := range mons {
			if _, err := m.Drain(now); err != nil {
				t.Fatal(err)
			}
		}
		store.Verify(now)
	})
}

// fill writes v over the first half of page, leaving the rest as it is.
func fill(page []byte, v uint64) {
	for i := 0; i < PageSize/2; i += 8 {
		binary.LittleEndian.PutUint64(page[i:], v)
	}
}
