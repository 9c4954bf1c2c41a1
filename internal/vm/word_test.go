package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// touchRead64 and touchWrite64 are Read64 and Write64 as they were before
// they served TLB hits themselves: the straddle check, then Touch.
func touchRead64(v *VM, now time.Duration, addr uint64) (uint64, time.Duration, error) {
	off := addr & (PageSize - 1)
	if off+8 > PageSize {
		return 0, now, fmt.Errorf("vm: unaligned word access straddles pages at %#x", addr)
	}
	data, done, err := v.Touch(now, addr, false)
	if err != nil {
		return 0, done, err
	}
	return binary.LittleEndian.Uint64(data[off : off+8]), done, nil
}

func touchWrite64(v *VM, now time.Duration, addr uint64, value uint64) (time.Duration, error) {
	off := addr & (PageSize - 1)
	if off+8 > PageSize {
		return now, fmt.Errorf("vm: unaligned word access straddles pages at %#x", addr)
	}
	data, done, err := v.Touch(now, addr, true)
	if err != nil {
		return done, err
	}
	binary.LittleEndian.PutUint64(data[off:off+8], value)
	return done, nil
}

// wordSystem is one VM over its own fakeBacking. The system under test calls
// Read64 and Write64; "touch" takes every word through Touch, as the parent
// code did; "flushed" does too, after a Flush, so every access reaches its
// backing.
type wordSystem struct {
	name  string
	v     *VM
	b     *fakeBacking
	touch bool
	flush bool
}

func (s *wordSystem) read(now time.Duration, addr uint64) (uint64, time.Duration, error) {
	if s.flush {
		s.v.Flush()
	}
	if s.touch {
		return touchRead64(s.v, now, addr)
	}
	return s.v.Read64(now, addr)
}

func (s *wordSystem) write(now time.Duration, addr, value uint64) (time.Duration, error) {
	if s.flush {
		s.v.Flush()
	}
	if s.touch {
		return touchWrite64(s.v, now, addr, value)
	}
	return s.v.Write64(now, addr, value)
}

// wordOutcome is what one operation returned on one system.
type wordOutcome struct {
	word uint64
	done time.Duration
	err  error
}

func (o wordOutcome) String() string {
	return fmt.Sprintf("word %#x done %v err %v (bad address %v, backing %v)",
		o.word, o.done, o.err, errors.Is(o.err, ErrBadAddress), errors.Is(o.err, errBacking))
}

func sameOutcome(a, b wordOutcome) bool {
	if a.word != b.word || a.done != b.done || (a.err == nil) != (b.err == nil) {
		return false
	}
	return a.err == nil || a.err.Error() == b.err.Error() &&
		errors.Is(a.err, ErrBadAddress) == errors.Is(b.err, ErrBadAddress) &&
		errors.Is(a.err, errBacking) == errors.Is(b.err, errBacking)
}

// wordReach records which edges of the word path a drive exercised.
type wordReach struct {
	// straddle: a word crossing a page boundary, on a page the TLB holds.
	straddle bool
	// writeThroughRead: a Write64 whose slot holds the page, filled by a read.
	writeThroughRead bool
	// pastNextShared: a word at or past next whose slot holds a valid entry.
	pastNextShared bool
}

// isSubsequence reports whether every call of sub appears in full in order,
// and every call of full that sub lacks is a Touch of a resident page: the
// only calls a TLB may skip.
func isSubsequence(sub, full []backingCall) bool {
	i := 0
	for _, c := range full {
		if i < len(sub) && sub[i] == c {
			i++
		} else if c.discard || !c.resident {
			return false
		}
	}
	return i == len(sub)
}

// driveWords runs one seeded sequence of word accesses, Touches, Flushes,
// Shootdowns, backing discards and refusals, Allocs and Rebinds on the
// system under test and both references, failing t at the first difference
// in a word, completion time, error, access count or backing call, or at a
// valid TLB entry the bounds-check skip could not rely on.
func driveWords(t testing.TB, seed uint64, capacity uint8, steps int) wordReach {
	const memPages = 6000 // past tlbMaxEntries, so allocated pages can share slots
	systems := make([]*wordSystem, 3)
	for i, name := range []string{"word", "touch", "flushed"} {
		b := newFakeBacking(int(capacity % 9))
		b.zero, b.logging = make([]byte, PageSize), true
		v, err := New(Config{Name: name, MemBytes: memPages * PageSize}, b)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = &wordSystem{name: name, v: v, b: b, touch: i > 0, flush: i == 2}
	}
	sut := systems[0]
	r := rand.New(rand.NewPCG(seed, 0x776f7264))
	var reach wordReach
	var now time.Duration

	// each runs op on every system, requiring the same outcome from all.
	each := func(step int, what string, op func(s *wordSystem) wordOutcome) {
		want := op(systems[0])
		for _, s := range systems[1:] {
			if got := op(s); !sameOutcome(got, want) {
				t.Fatalf("seed %d step %d %s: %s %v, %s %v", seed, step, what, sut.name, want, s.name, got)
			}
		}
		if want.err == nil && want.done > now {
			now = want.done
		}
	}
	each(-1, "alloc", func(s *wordSystem) wordOutcome {
		_, err := s.v.Alloc("seed", uint64(1+seed%3)*PageSize, ClassAnon)
		return wordOutcome{err: err}
	})

	addr := func() uint64 {
		v := sut.v
		base := v.cfg.Base
		allocated := (v.next - base) / PageSize
		var page uint64
		switch k := r.IntN(16); {
		case k == 0:
			return base - PageSize + r.Uint64N(PageSize)
		case k <= 2: // at or past next, in a slot a resident page may hold
			page = allocated + r.Uint64N(uint64(len(v.tlb))+1)
		case k <= 4:
			page = r.Uint64N(max(allocated, uint64(len(v.tlb))) + 2)
		default: // a few hot pages, so most accesses hit
			page = r.Uint64N(min(allocated, 12))
		}
		var off uint64
		switch r.IntN(10) {
		case 0:
			off = r.Uint64N(PageSize)
		case 1:
			off = PageSize - 8 + r.Uint64N(8)
		default:
			off = r.Uint64N(PageSize/8) * 8
		}
		return base + page*PageSize + off
	}
	// valid returns the slot of addr's page in the system under test and
	// whether it holds a valid entry.
	valid := func(addr uint64) (*tlbEntry, bool) {
		e := &sut.v.tlb[addr/PageSize&uint64(len(sut.v.tlb)-1)]
		return e, e.gen == sut.v.gen
	}

	for step := range steps {
		switch k := r.IntN(100); {
		case k < 35:
			a := addr()
			if e, ok := valid(a); ok {
				reach.straddle = reach.straddle || a%PageSize > PageSize-8 && e.tag&^1 == a&^(PageSize-1)
				reach.pastNextShared = reach.pastNextShared || a >= sut.v.next
			}
			each(step, fmt.Sprintf("Read64(%#x)", a), func(s *wordSystem) wordOutcome {
				w, done, err := s.read(now, a)
				return wordOutcome{word: w, done: done, err: err}
			})
		case k < 60:
			a, value := addr(), r.Uint64()
			if e, ok := valid(a); ok {
				page := a &^ (PageSize - 1)
				reach.straddle = reach.straddle || a%PageSize > PageSize-8 && e.tag&^1 == page
				reach.writeThroughRead = reach.writeThroughRead || e.tag == page
				reach.pastNextShared = reach.pastNextShared || a >= sut.v.next
			}
			each(step, fmt.Sprintf("Write64(%#x)", a), func(s *wordSystem) wordOutcome {
				done, err := s.write(now, a, value)
				return wordOutcome{done: done, err: err}
			})
		case k < 70:
			a, write := addr(), r.IntN(2) == 0
			each(step, fmt.Sprintf("Touch(%#x, %v)", a, write), func(s *wordSystem) wordOutcome {
				if s.flush {
					s.v.Flush()
				}
				data, done, err := s.v.Touch(now, a, write)
				o := wordOutcome{word: uint64(len(data)), done: done, err: err}
				if off := a % PageSize; err == nil && off <= PageSize-8 {
					o.word = binary.LittleEndian.Uint64(data[off:])
				}
				return o
			})
		case k < 74:
			for _, s := range systems {
				s.v.Flush()
			}
		case k < 79:
			page := addr() &^ (PageSize - 1)
			for _, s := range systems {
				s.v.Shootdown(page)
			}
		case k < 85:
			a := addr()
			for _, s := range systems {
				s.b.Discard(a)
			}
		case k < 90: // the backing starts or stops refusing a page, and shoots it down
			page := addr() &^ (PageSize - 1)
			for _, s := range systems {
				s.b.failing[page] = !s.b.failing[page]
				s.v.Shootdown(page)
			}
		case k < 99:
			pages := 1 + r.Uint64N(4)
			if r.IntN(6) == 0 {
				pages = 1 + r.Uint64N(2048)
			}
			each(step, fmt.Sprintf("Alloc(%d pages)", pages), func(s *wordSystem) wordOutcome {
				_, err := s.v.Alloc("grow", pages*PageSize, ClassAnon)
				return wordOutcome{err: err}
			})
		default:
			for _, s := range systems {
				if err := s.v.Rebind(s.b); err != nil {
					t.Fatal(err)
				}
			}
		}

		wr, ww := sut.v.AccessCounts()
		for _, s := range systems[1:] {
			if r, w := s.v.AccessCounts(); r != wr || w != ww {
				t.Fatalf("seed %d step %d: access counts %d/%d, %s %d/%d", seed, step, wr, ww, s.name, r, w)
			}
		}
		if n, m := len(sut.b.log), len(systems[1].b.log); n != m || n > 0 && sut.b.log[n-1] != systems[1].b.log[m-1] {
			t.Fatalf("seed %d step %d: backing calls differ from the Touch path: %d calls, last %+v; touch %d calls, last %+v",
				seed, step, n, sut.b.log[max(n-1, 0):], m, systems[1].b.log[max(m-1, 0):])
		}
		// The bounds-check skip: every entry an access can hit (valid, in
		// its page's slot; a copy Alloc left in the other half matches no
		// page) is a page inside the allocation, naming the frame the
		// backing maps there. A large TLB is scanned every 64 steps.
		v := sut.v
		if len(v.tlb) > 64 && step%64 != 63 {
			continue
		}
		for i := range v.tlb {
			e := &v.tlb[i]
			page := e.tag &^ 1
			if e.gen != v.gen || page/PageSize&uint64(len(v.tlb)-1) != uint64(i) {
				continue
			}
			if page < v.cfg.Base || page+PageSize > v.next {
				t.Fatalf("seed %d step %d: valid entry for page %#x in slot %d, allocation [%#x, %#x)", seed, step, page, i, v.cfg.Base, v.next)
			}
			if frame := sut.b.frames[page]; frame == nil || e.frame != (*[PageSize]byte)(frame) {
				t.Fatalf("seed %d step %d: valid entry for page %#x names a frame the backing does not map there", seed, step, page)
			}
		}
	}
	for i, c := range sut.b.log {
		if c != systems[1].b.log[i] {
			t.Fatalf("seed %d: backing call %d is %+v, through Touch %+v", seed, i, c, systems[1].b.log[i])
		}
	}
	if !isSubsequence(sut.b.log, systems[2].b.log) {
		t.Fatalf("seed %d: the backing calls are not the flushed reference's less some resident-page Touches", seed)
	}
	if len(sut.b.log) >= len(systems[2].b.log) && steps > 100 {
		t.Fatalf("seed %d: %d backing calls, no fewer than the flushed reference's %d", seed, len(sut.b.log), len(systems[2].b.log))
	}
	return reach
}

// wordSeeds are FuzzWordAccessMatchesTouch's corpus: (seed, capacity, steps).
var wordSeeds = []struct {
	seed     uint64
	capacity uint8
	steps    uint16
}{{1, 0, 1999}, {7, 3, 1999}, {301, 8, 1500}, {42, 1, 800}, {99, 5, 1999}}

// FuzzWordAccessMatchesTouch: Read64 and Write64 serve TLB hits without
// Touch, and nothing else may tell. A VM driven through them is compared,
// operation by operation, with one whose words go through Touch (the same
// backing calls, call for call) and with one that flushes before every
// access (the same words, times, errors and access counts, and a backing
// call log that only adds Touches of resident pages).
func FuzzWordAccessMatchesTouch(f *testing.F) {
	for _, s := range wordSeeds {
		f.Add(s.seed, s.capacity, s.steps)
	}
	f.Fuzz(func(t *testing.T, seed uint64, capacity uint8, steps uint16) {
		driveWords(t, seed, capacity, 1+int(steps%2000))
	})
}

// TestWordAccessSeedsReachEdges: the corpus drives the edges the fast path
// must leave to Touch or get right itself.
func TestWordAccessSeedsReachEdges(t *testing.T) {
	var all wordReach
	for _, s := range wordSeeds {
		r := driveWords(t, s.seed, s.capacity, 1+int(s.steps%2000))
		all.straddle = all.straddle || r.straddle
		all.writeThroughRead = all.writeThroughRead || r.writeThroughRead
		all.pastNextShared = all.pastNextShared || r.pastNextShared
	}
	if all != (wordReach{true, true, true}) {
		t.Fatalf("corpus reaches %+v, want every edge", all)
	}
}
