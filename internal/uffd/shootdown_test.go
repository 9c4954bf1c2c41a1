package uffd

import (
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// shootLog is a TLB that records the pages shot down in it.
type shootLog struct{ addrs []uint64 }

func (l *shootLog) Shootdown(addr uint64) { l.addrs = append(l.addrs, addr) }

// TestShootdownOnEveryUnmap drives seeded page operations over four regions
// and checks, after every operation, the shootdowns each attached TLB saw:
// Remap, RemapDrop and Drop of a mapped page shoot that page down exactly
// once in its process's TLB, Unregister shoots down each page the region
// still mapped, and ZeroPage, Copy, Install, an access (fault, COW break or
// write-protect fault included) and Wake shoot down nothing. Process 1 has a
// region registered before its TLB was attached and one registered after (a
// hotplugged slot); process 2 has its own TLB; process 3 has none.
func TestShootdownOnEveryUnmap(t *testing.T) {
	const pages = 16
	f := New(DefaultParams(), 1)
	type span struct {
		start uint64
		pid   int
	}
	spans := []span{{0x10000, 1}, {0x40000, 1}, {0x80000, 2}, {0xc0000, 3}}
	regions := make([]*Region, len(spans))
	register := func(i int) {
		r, err := f.Register(spans[i].start, pages*PageSize, spans[i].pid)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = r
	}
	logs := map[int]*shootLog{1: {}, 2: {}}
	register(0)
	f.Attach(1, logs[1])
	f.Attach(2, logs[2])
	for i := 1; i < len(spans); i++ {
		register(i)
	}
	buf := make([]byte, PageSize)
	rng := clock.NewRand(7)
	var now time.Duration
	tick := func() time.Duration { now += time.Microsecond; return now }
	exercised := map[string]int{}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(spans))
		region := regions[i]
		addr := spans[i].start + uint64(rng.Intn(pages))*PageSize
		want := map[int][]uint64{}
		mapped := region.State(addr) != PageMissing
		var op string
		switch rng.Intn(10) {
		case 0:
			op = "ZeroPage"
			_, _ = f.ZeroPage(tick(), addr)
		case 1:
			op = "Copy"
			_, _ = f.Copy(tick(), addr, buf)
		case 2:
			op = "Install"
			_, _, _ = f.Install(tick(), addr, buf, false, rng.Intn(2) == 0)
		case 3, 4:
			op = "Access"
			write := rng.Intn(2) == 0
			switch state := region.State(addr); {
			case write && state == PageZeroCOW:
				op = "COWBreak"
			case write && f.PageClean(addr):
				op = "WPFault"
			}
			if _, _, hit, _ := f.Access(tick(), addr+8, write); !hit {
				f.NextEvent()
				f.Wake(tick(), addr)
			}
		case 5:
			op = "Remap"
			owned := !f.PageShared(addr)
			if data, _, err := f.Remap(tick(), addr, rng.Intn(2) == 0); err == nil && owned {
				f.Recycle(data)
			}
			if mapped {
				want[spans[i].pid] = []uint64{addr}
			}
		case 6:
			op = "RemapDrop"
			_, _ = f.RemapDrop(tick(), addr, false)
			if mapped {
				want[spans[i].pid] = []uint64{addr}
			}
		case 7:
			op = "Drop"
			f.Drop(addr + 16)
			if mapped {
				want[spans[i].pid] = []uint64{addr}
			}
		case 8:
			op = "Wake"
			f.Wake(tick(), addr)
		case 9:
			if rng.Intn(8) != 0 {
				continue
			}
			op = "Unregister"
			var gone []uint64
			for a := region.Start; a < region.End(); a += PageSize {
				if region.State(a) != PageMissing {
					gone = append(gone, a)
				}
			}
			f.Unregister(region)
			register(i)
			if gone != nil {
				want[spans[i].pid] = gone
			}
		}
		// An install counts only on a missing page, anything else only on
		// a mapped one: where it changes a mapping.
		installs := op == "ZeroPage" || op == "Copy" || op == "Install"
		if mapped != installs || op == "Unregister" {
			exercised[op]++
		}
		for pid, log := range logs {
			if !reflect.DeepEqual(log.addrs, want[pid]) {
				t.Fatalf("step %d: %s of %#x (pid %d, mapped %v): pid %d TLB saw %#x, want %#x",
					step, op, addr, spans[i].pid, mapped, pid, log.addrs, want[pid])
			}
			log.addrs = nil
		}
	}
	for _, op := range []string{"ZeroPage", "Copy", "Install", "Access", "COWBreak", "WPFault", "Remap", "RemapDrop", "Drop", "Unregister"} {
		if exercised[op] == 0 {
			t.Errorf("%s never changed a mapping", op)
		}
	}
	t.Log(exercised)
}
