package storetest_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/storetest"
)

// FuzzPoisonedReput drives the aliasing net over a store that declares
// kvstore.Reput (the fuzzer picks DRAM, a RAMCloud log small enough to clean,
// or a memcached of two slab pages that evicts) with an op stream of reads
// through all three calls, re-puts of the buffer last read under a key,
// fresh Puts and MultiPuts, Deletes, and takes of the buffer last read under
// a key (which the test then owns and scribbles over) or, for a key taken,
// its write-back as the taken buffer holding a fresh page, mirrored in a
// model of each key's page. The net must raise no alarm, and after every op
// each key must read the page the model holds for it, a taken key none: a
// re-put keeps its bytes, and the net leaves the slot that still holds the
// re-put buffer alone.
func FuzzPoisonedReput(f *testing.F) {
	f.Add(uint8(0), []byte{4, 1, 0, 1, 3, 1, 0, 1, 3, 1})
	f.Add(uint8(1), []byte{5, 0, 2, 0, 3, 0, 3, 1, 6, 0, 4, 0, 1, 0, 3, 0})
	f.Add(uint8(2), []byte{4, 2, 4, 3, 1, 2, 0, 3, 3, 2, 3, 3, 5, 2, 2, 2, 3, 3})
	f.Add(uint8(1), []byte{4, 1, 0, 1, 7, 1, 5, 2, 7, 1, 0, 1, 7, 1, 6, 1})
	f.Fuzz(func(t *testing.T, backend uint8, ops []byte) {
		var inner kvstore.Store
		switch backend % 3 {
		case 0:
			inner = dram.New(dram.DefaultParams(), 1)
		case 1:
			p := ramcloud.DefaultParams()
			p.CapacityBytes = 4 << 20
			inner = ramcloud.New(p, 1)
		default:
			p := memcached.DefaultParams()
			p.CapacityBytes = 2 << 20
			inner = memcached.New(p, 1)
		}
		net := storetest.Poison(t, inner)
		const keys = 8
		key := func(i byte) kvstore.Key { return kvstore.MakeKey(0x10000+uint64(i%keys)*kvstore.PageSize, 3) }
		want := map[kvstore.Key]byte{} // the tag of each key's page; absent: never written or deleted
		read := map[kvstore.Key][]byte{}
		taken := map[kvstore.Key][]byte{} // keys taken and not written since, with the buffer
		now, tag := time.Duration(0), byte(0)
		step := func(done time.Duration, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			now = max(now, done)
		}
		hold := func(k kvstore.Key, buf []byte) {
			if buf != nil {
				read[k] = buf
			}
		}
		wrote := func(k kvstore.Key, t byte) { want[k] = t; delete(read, k); delete(taken, k) }
		ops = ops[:min(len(ops), 2048)]
		for i := 0; i+1 < len(ops); i += 2 {
			k, other := key(ops[i+1]), key(ops[i+1]+1)
			switch ops[i] % 8 {
			case 0:
				if buf, done, err := net.Get(now, k); err == nil {
					now = max(now, done)
					hold(k, buf)
				}
			case 1:
				p := net.StartGet(now, k)
				if buf, done, err := p.Wait(now); err == nil {
					now = max(now, done)
					hold(k, buf)
				}
			case 2:
				bufs, done, err := net.MultiGet(now, []kvstore.Key{k, other})
				step(done, err)
				hold(k, bufs[0])
				if other != k {
					hold(other, bufs[1])
				}
			case 3:
				buf, ok := read[k]
				if !ok || other == k {
					continue
				}
				tag++
				step(net.MultiPut(now, []kvstore.Key{k, other}, [][]byte{buf, storetest.Page(tag)}))
				wrote(k, want[k])
				wrote(other, tag)
			case 4:
				tag++
				step(net.Put(now, k, storetest.Page(tag)))
				wrote(k, tag)
			case 5:
				if other == k {
					continue
				}
				tag += 2
				step(net.MultiPut(now, []kvstore.Key{k, other}, [][]byte{storetest.Page(tag - 1), storetest.Page(tag)}))
				wrote(k, tag-1)
				wrote(other, tag)
			case 6:
				step(net.Delete(now, k))
				delete(want, k)
				delete(read, k)
				delete(taken, k)
			default:
				if buf, ok := taken[k]; ok {
					tag++
					copy(buf, storetest.Page(tag))
					step(net.MultiPut(now, []kvstore.Key{k}, [][]byte{buf}))
					wrote(k, tag)
					continue
				}
				buf, ok := read[k]
				if !ok {
					continue
				}
				if !net.Take(k, buf) {
					t.Fatalf("op %d: the buffer last read under %v was not taken", i/2, k)
				}
				storetest.Scribble(buf)
				taken[k] = buf
				delete(want, k)
				delete(read, k)
			}
			for k := range taken {
				if _, _, err := inner.Get(now, k); !errors.Is(err, kvstore.ErrNotFound) {
					t.Fatalf("op %d: taken %v reads %v, want ErrNotFound", i/2, k, err)
				}
			}
			for k, tag := range want {
				got, done, err := inner.Get(now, k)
				if err != nil && inner.Stats().Evictions > 0 {
					delete(want, k) // memcached dropped it under capacity pressure
					delete(read, k)
					continue
				}
				step(done, err)
				if !bytes.Equal(got, storetest.Page(tag)) {
					t.Fatalf("op %d: %v does not read the page last written under it", i/2, k)
				}
			}
		}
		net.Verify(now)
	})
}
