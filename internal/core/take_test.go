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

// TestWriteFaultTakesStoreBuffer: a write fault on a page the store holds
// maps the store's read buffer itself, owned, and the retried write lands in
// it with no copy; the store keeps the key with no buffer. Under clean drop
// the taken page is write-protected all the same, so the write takes the WP
// fault, and its eviction writes it back rather than dropping it. With
// synchronous write-back nothing is taken: the write copies the shared
// buffer. Both read paths (split and synchronous) take.
func TestWriteFaultTakesStoreBuffer(t *testing.T) {
	for _, c := range []struct {
		name                    string
		async, split, cleanDrop bool
	}{
		{"split", true, true, false},
		{"sync-read", true, false, false},
		{"split/clean-drop", true, true, true},
		{"write-through", false, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := dram.New(dram.DefaultParams(), 9)
			cfg := DefaultConfig(store, 2)
			cfg.AsyncWrite, cfg.AsyncRead, cfg.CleanPageDrop = c.async, c.split, c.cleanDrop
			cfg.WriteBatchSize = 1
			m := newMonitor(t, cfg, 8)
			now := time.Duration(0)
			for i := 0; i < 4; i++ { // pages 0 and 1 end up in the store
				data, done, err := m.Touch(now, addr(i), true)
				if err != nil {
					t.Fatal(err)
				}
				now = done
				binary.LittleEndian.PutUint64(data, wordOf(i))
			}
			if _, err := m.Drain(now); err != nil {
				t.Fatal(err)
			}
			key := kvstore.MakeKey(addr(0), m.pages.region(addr(0)).part)
			stored, _, err := store.Get(now, key)
			if err != nil {
				t.Fatal(err)
			}
			copies, wp, buffers, keys := m.PageCopies(), m.WPFaults(), store.Buffers(), store.Len()
			data, now, err := m.Touch(now, addr(0), true)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(data); got != wordOf(0) {
				t.Fatalf("page 0 reads %#x, want %#x", got, wordOf(0))
			}
			taken := kvstore.SameBuffer(data, stored)
			if taken != c.async {
				t.Fatalf("the written page maps the store's buffer: %v, want %v", taken, c.async)
			}
			// The fault evicted page 2 to the store: one key and one buffer
			// more, less the buffer taken.
			wantCopies, wantBuffers := copies, buffers
			if !c.async {
				wantCopies, wantBuffers = copies+1, buffers+1
			}
			if m.PageCopies() != wantCopies || store.Buffers() != wantBuffers || store.Len() != keys+1 {
				t.Fatalf("%d page copies, %d store buffers over %d keys; want %d, %d over %d",
					m.PageCopies(), store.Buffers(), store.Len(), wantCopies, wantBuffers, keys+1)
			}
			if c.cleanDrop && m.WPFaults() != wp+1 {
				t.Fatalf("%d WP faults after the write, %d before; want one more", m.WPFaults(), wp)
			}
			binary.LittleEndian.PutUint64(data, wordOf(10))
			// Evict page 0 and read it back from the store.
			for _, i := range []int{2, 3} {
				if _, now, err = m.Touch(now, addr(i), false); err != nil {
					t.Fatal(err)
				}
			}
			if m.Stats().CleanDropped != 0 {
				t.Fatalf("%d pages dropped clean; a written page never is", m.Stats().CleanDropped)
			}
			if now, err = m.Drain(now); err != nil {
				t.Fatal(err)
			}
			readWords(t, m, now, []uint64{wordOf(10)})
		})
	}
}

// TestFailedInstallRequeuesTakenPage: on the synchronous read path a write
// fault takes the store's buffer before making room, so when the eviction's
// flush fails the page it took is its only copy, and it goes on the write
// list, as adopt's pages do. The refault steals it back; every word reads
// back, and the aliasing net checks the store never hands out the buffer.
func TestFailedInstallRequeuesTakenPage(t *testing.T) {
	for _, steal := range []bool{true, false} {
		sched := &scheduledStore{Store: dram.New(dram.DefaultParams(), 9)}
		store := storetest.Poison(t, sched)
		cfg := DefaultConfig(store, 2)
		cfg.AsyncRead = false
		cfg.StealEnabled = steal
		cfg.WriteBatchSize = 1
		m := newMonitor(t, cfg, 8)
		now := time.Duration(0)
		want := make([]uint64, 4)
		for i := range want {
			data, done, err := m.Touch(now, addr(i), true)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			want[i] = wordOf(i)
			binary.LittleEndian.PutUint64(data, want[i])
		}
		// Page 0 is in the store; its write fault takes the buffer, then
		// making room evicts page 2, whose flush fails twice: the eviction's
		// and the taken page's own.
		sched.arm(0b11)
		_, now, err := m.Touch(now, addr(0), true)
		sched.armed = false
		if !errors.Is(err, errScheduled) {
			t.Fatalf("steal %v: the write fault's err = %v, want the flush failure", steal, err)
		}
		if !m.wb.Queued(kvstore.MakeKey(addr(0), m.pages.region(addr(0)).part)) {
			t.Fatalf("steal %v: the taken page is not on the write list", steal)
		}
		now = readWords(t, m, now, want)
		if now, err = m.Drain(now); err != nil {
			t.Fatal(err)
		}
		store.Verify(now)
	}
}
