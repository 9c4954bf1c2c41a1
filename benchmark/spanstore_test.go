package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/storetest"
)

// The decorator must be invisible to everything the store contract covers,
// recording or not.
func TestSpanStoreConformance(t *testing.T) {
	backends := map[string]func() kvstore.Store{
		"dram":     func() kvstore.Store { return dram.New(dram.DefaultParams(), 1) },
		"ramcloud": func() kvstore.Store { return ramcloud.New(ramcloud.DefaultParams(), 1) },
	}
	for name, mk := range backends {
		for _, on := range []bool{false, true} {
			mk, on := mk, on
			t.Run(name, func(t *testing.T) {
				storetest.Run(t, func() kvstore.Store {
					rec := newRecorder()
					rec.on = on
					return &spanStore{inner: mk(), rec: rec}
				})
			})
		}
	}
}

func TestSpanStoreForwardsLocal(t *testing.T) {
	rec := newRecorder()
	if s := (&spanStore{inner: dram.New(dram.DefaultParams(), 1), rec: rec}); !s.Local() {
		t.Error("decorated dram store must stay local: the monitor skips its RPC costs for it")
	}
	if s := (&spanStore{inner: ramcloud.New(ramcloud.DefaultParams(), 1), rec: rec}); s.Local() {
		t.Error("decorated ramcloud store must stay remote")
	}
}

func TestSpanStoreRecordsChildren(t *testing.T) {
	rec := newRecorder()
	rec.on = true
	s := &spanStore{inner: dram.New(dram.DefaultParams(), 1), rec: rec}
	key := kvstore.MakeKey(0x10000, 1)
	if _, err := s.Put(0, key, storetest.Page(3)); err != nil { // outside any operation
		t.Fatal(err)
	}
	rec.beginOp()
	p := s.StartGet(0, key)
	if _, _, err := p.Wait(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(0, key); err != nil {
		t.Fatal(err)
	}
	rec.endOp()
	if rec.agg[spanPut].calls != 1 || rec.agg[spanStartGet].calls != 1 || rec.agg[spanGet].calls != 1 || rec.agg[spanTouch].calls != 1 {
		t.Fatalf("span counts put/startget/get/touch = %d/%d/%d/%d, want 1 each",
			rec.agg[spanPut].calls, rec.agg[spanStartGet].calls, rec.agg[spanGet].calls, rec.agg[spanTouch].calls)
	}
	inOp := rec.agg[spanStartGet].sum + rec.agg[spanGet].sum
	if got := rec.agg[spanTouch].sum - rec.selfSum; got != inOp {
		t.Errorf("touch span minus self time = %d ns, its two store children took %d ns", got, inOp)
	}
	if rec.storeSum() != inOp+rec.agg[spanPut].sum {
		t.Errorf("store time %d ns, spans sum to %d ns", rec.storeSum(), inOp+rec.agg[spanPut].sum)
	}
	var buf bytes.Buffer
	if err := rec.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(events) != 4 {
		t.Errorf("trace holds %d spans, want 4", len(events))
	}
}

// A traced repetition must produce the untraced one's virtual-time results
// and counts bit for bit.
func TestTracedEqualsUntraced(t *testing.T) {
	for _, w := range workloads[:2] {
		plain, err := w.run(5, miniSizes, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		rec := newRecorder()
		traced, err := w.run(5, miniSizes, rec)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if diff := diffDet(plain, traced); len(diff) > 0 {
			t.Errorf("%s: tracing changed results: %v", w.name, diff)
		}
		if rec.agg[spanTouch].calls != traced.ops {
			t.Errorf("%s: %d touch spans for %d ops", w.name, rec.agg[spanTouch].calls, traced.ops)
		}
		other, err := w.run(6, miniSizes, nil)
		if err != nil {
			t.Fatalf("%s seed 6: %v", w.name, err)
		}
		if len(diffDet(plain, other)) == 0 {
			t.Errorf("%s: seeds 5 and 6 gave identical results: the seed is not reaching the inputs", w.name)
		}
	}
}
