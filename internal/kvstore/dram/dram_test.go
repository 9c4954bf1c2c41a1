package dram

import (
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		return New(DefaultParams(), 1)
	})
}

func TestDRAMIsFast(t *testing.T) {
	s := New(DefaultParams(), 2)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); err != nil {
		t.Fatal(err)
	}
	_, done, err := s.Get(100*time.Microsecond, key)
	if err != nil {
		t.Fatal(err)
	}
	if lat := done - 100*time.Microsecond; lat > 5*time.Microsecond {
		t.Fatalf("DRAM read took %v, want memcpy-scale", lat)
	}
}

func TestLen(t *testing.T) {
	s := New(DefaultParams(), 3)
	for i := 0; i < 5; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i*kvstore.PageSize), 1), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, err := s.Delete(0, kvstore.MakeKey(0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New(DefaultParams(), 4)
	key := kvstore.MakeKey(0x1000, 1)
	page := storetest.Page(1)
	if _, err := s.Put(0, key, page); err != nil {
		t.Fatal(err)
	}
	page[0] ^= 0xFF // caller reuses its buffer
	got, _, err := s.Get(0, key)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == page[0] {
		t.Fatal("store aliases the caller's buffer")
	}
}

// BenchmarkMultiPut32 is the store's ledger row for a write-back flush.
func BenchmarkMultiPut32(b *testing.B) {
	storetest.BenchMultiPut(b, New(DefaultParams(), 1), 32)
}
