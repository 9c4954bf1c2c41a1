package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore/dram"
)

// wordOf is the word a test writes to page i: distinct and never zero.
func wordOf(i int) uint64 { return uint64(i+1) * 0x0101010101010101 }

// readWords reads pages [0, n) back on m and checks each one's first word
// against want, returning the time the last read resumes.
func readWords(t *testing.T, m *Monitor, now time.Duration, want []uint64) time.Duration {
	t.Helper()
	for i, w := range want {
		data, done, err := m.Touch(now, addr(i), false)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		now = done
		if got := binary.LittleEndian.Uint64(data); got != w {
			t.Fatalf("page %d reads %#x, want %#x", i, got, w)
		}
	}
	return now
}

// TestFailedWriteThroughKeepsThePage: with synchronous write-back, an
// eviction whose Put fails reports the error and parks the page on the write
// list, so a refault finds it there — by the forced flush without stealing
// (the Baseline monitor), by a steal with it. When the steal's own eviction
// fails too, the stolen page goes back on the list.
func TestFailedWriteThroughKeepsThePage(t *testing.T) {
	for _, c := range []struct {
		steal    bool
		schedule uint8
	}{{false, 0b1}, {true, 0b1}, {true, 0b11}} {
		sched := &scheduledStore{Store: dram.New(dram.DefaultParams(), 9)}
		cfg := BaselineConfig(sched, 2)
		cfg.StealEnabled = c.steal
		m := newMonitor(t, cfg, 8)
		now := time.Duration(0)
		for i := 0; i < 2; i++ {
			data, done, err := m.Touch(now, addr(i), true)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			binary.LittleEndian.PutUint64(data, wordOf(i))
		}
		// The third page's first touch evicts page 0, and its Put fails.
		sched.arm(c.schedule)
		_, now, err := m.Touch(now, addr(2), true)
		if !errors.Is(err, errScheduled) {
			t.Fatalf("%+v: third touch err = %v, want the Put failure", c, err)
		}
		if c.schedule&0b10 != 0 {
			// Page 0's refault steals it, and making room evicts page 1,
			// whose Put fails as well.
			if _, now, err = m.Touch(now, addr(0), false); !errors.Is(err, errScheduled) {
				t.Fatalf("%+v: refault err = %v, want the Put failure", c, err)
			}
		}
		sched.armed = false
		readWords(t, m, now, []uint64{wordOf(0), wordOf(1), 0})
		if got := m.Stats().Steals; (got != 0) != c.steal {
			t.Fatalf("%+v: %d steals", c, got)
		}
	}
}

// TestSyncWriteBackServesDisplacedPages: with synchronous write-back and the
// compressed tier, pool overflow queues the displaced pages on the write
// list; every refault must find its page there or in the store.
func TestSyncWriteBackServesDisplacedPages(t *testing.T) {
	for _, steal := range []bool{false, true} {
		cfg := dramCfg(4)
		cfg.AsyncWrite = false
		cfg.StealEnabled = steal
		p := DefaultCompressParams(PageSize)
		cfg.Compress = &p
		m := newMonitor(t, cfg, 32)
		want := make([]uint64, 32)
		now := time.Duration(0)
		for i := range want {
			data, done, err := m.Touch(now, addr(i), true)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			want[i] = wordOf(i)
			fill(data, want[i])
		}
		if m.WriteListLen() == 0 {
			t.Fatal("no displaced page on the write list")
		}
		now = readWords(t, m, now, want)
		if _, err := m.Drain(now); err != nil {
			t.Fatal(err)
		}
	}
}
