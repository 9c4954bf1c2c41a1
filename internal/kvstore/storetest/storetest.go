// Package storetest provides a conformance suite run against every kvstore
// backend, so the Store contract is enforced once rather than re-tested per
// implementation.
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
)

// Factory builds a fresh, empty store for one subtest.
type Factory func() kvstore.Store

// Page builds a deterministic 4 KB page whose contents encode tag.
func Page(tag byte) []byte {
	p := make([]byte, kvstore.PageSize)
	for i := range p {
		p[i] = tag ^ byte(i)
	}
	return p
}

// Run exercises the full Store contract against the factory's stores.
func Run(t *testing.T, factory Factory) {
	t.Run("PutGetRoundTrip", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x10000, 1)
		want := Page(7)
		if _, err := s.Put(0, key, want); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get(time.Microsecond, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("page corrupted in round trip")
		}
	})

	t.Run("GetMissing", func(t *testing.T) {
		s := factory()
		if _, _, err := s.Get(0, kvstore.MakeKey(0x999000, 1)); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run("PutRejectsBadSize", func(t *testing.T) {
		s := factory()
		if _, err := s.Put(0, kvstore.MakeKey(0x1000, 1), []byte("short")); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("err = %v, want ErrBadValue", err)
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x20000, 2)
		if _, err := s.Put(0, key, Page(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(0, key, Page(2)); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, Page(2)) {
			t.Fatal("overwrite did not take effect")
		}
	})

	t.Run("Delete", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x30000, 3)
		if _, err := s.Put(0, key, Page(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete(0, key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("err after delete = %v", err)
		}
		// Deleting a missing key is not an error (idempotent teardown).
		if _, err := s.Delete(0, key); err != nil {
			t.Fatalf("double delete: %v", err)
		}
	})

	t.Run("MultiPut", func(t *testing.T) {
		s := factory()
		var keys []kvstore.Key
		var pages [][]byte
		for i := 0; i < 16; i++ {
			keys = append(keys, kvstore.MakeKey(uint64(0x100000+i*kvstore.PageSize), 4))
			pages = append(pages, Page(byte(i)))
		}
		done, err := s.MultiPut(0, keys, pages)
		if err != nil {
			t.Fatal(err)
		}
		if done <= 0 {
			t.Fatal("MultiPut reported no elapsed time")
		}
		for i, key := range keys {
			got, _, err := s.Get(done, key)
			if err != nil {
				t.Fatalf("key %d: %v", i, err)
			}
			// Not pages[i]: after the call that slot holds whatever the store
			// handed back.
			if !bytes.Equal(got, Page(byte(i))) {
				t.Fatalf("key %d corrupted", i)
			}
		}
	})

	t.Run("MultiPutMismatchedLengths", func(t *testing.T) {
		s := factory()
		_, err := s.MultiPut(0, []kvstore.Key{1}, nil)
		if !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("MultiPutAmortised", func(t *testing.T) {
		const n = 32
		serial := factory()
		var serialDone time.Duration
		for i := 0; i < n; i++ {
			var err error
			serialDone, err = serial.Put(serialDone, kvstore.MakeKey(uint64(i*kvstore.PageSize), 1), Page(byte(i)))
			if err != nil {
				t.Fatal(err)
			}
		}
		batched := factory()
		var keys []kvstore.Key
		var pages [][]byte
		for i := 0; i < n; i++ {
			keys = append(keys, kvstore.MakeKey(uint64(i*kvstore.PageSize), 1))
			pages = append(pages, Page(byte(i)))
		}
		batchDone, err := batched.MultiPut(0, keys, pages)
		if err != nil {
			t.Fatal(err)
		}
		if batchDone >= serialDone {
			t.Fatalf("MultiPut (%v) should beat %d serial Puts (%v)", batchDone, n, serialDone)
		}
	})

	t.Run("MultiPutEmpty", func(t *testing.T) {
		s := factory()
		done, err := s.MultiPut(3*time.Microsecond, nil, nil)
		if err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		if done < 3*time.Microsecond {
			t.Fatalf("completion %v before submission", done)
		}
		if st := s.Stats(); st.Puts != 0 || st.BytesStored != 0 {
			t.Fatalf("empty batch wrote state: %+v", st)
		}
	})

	t.Run("MultiPutOverwriteAccounting", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x90000, 3)
		if _, err := s.Put(0, key, Page(1)); err != nil {
			t.Fatal(err)
		}
		// Overwriting via MultiPut must replace the value without
		// double-counting stored bytes.
		done, err := s.MultiPut(0, []kvstore.Key{key}, [][]byte{Page(2)})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get(done, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, Page(2)) {
			t.Fatal("MultiPut overwrite did not take effect")
		}
		if st := s.Stats(); st.BytesStored != kvstore.PageSize {
			t.Fatalf("BytesStored = %d after overwrite, want %d", st.BytesStored, kvstore.PageSize)
		}
	})

	t.Run("MultiPutStats", func(t *testing.T) {
		s := factory()
		keys := []kvstore.Key{kvstore.MakeKey(0x91000, 3), kvstore.MakeKey(0x92000, 3)}
		if _, err := s.MultiPut(0, keys, [][]byte{Page(1), Page(2)}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.MultiPuts != 1 || st.Puts != 2 {
			t.Fatalf("stats after MultiPut = %+v, want MultiPuts=1 Puts=2", st)
		}
	})

	t.Run("StartGetSplitRead", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x40000, 5)
		if _, err := s.Put(0, key, Page(9)); err != nil {
			t.Fatal(err)
		}
		p := s.StartGet(time.Millisecond, key)
		if p.ReadyAt <= time.Millisecond {
			t.Fatalf("ReadyAt = %v, want after issue time", p.ReadyAt)
		}
		data, done, err := p.Wait(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done < p.ReadyAt {
			t.Fatalf("Wait returned %v before ReadyAt %v", done, p.ReadyAt)
		}
		if !bytes.Equal(data, Page(9)) {
			t.Fatal("split read corrupted page")
		}
	})

	t.Run("VirtualTimeMonotone", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x50000, 6)
		now := time.Duration(0)
		for i := 0; i < 20; i++ {
			done, err := s.Put(now, key, Page(byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			if done < now {
				t.Fatalf("completion %v before submission %v", done, now)
			}
			now = done
		}
	})

	t.Run("StatsCount", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x60000, 7)
		if _, err := s.Put(0, key, Page(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(0, key); err != nil {
			t.Fatal(err)
		}
		s.Get(0, kvstore.MakeKey(0x61000, 7)) // miss
		st := s.Stats()
		if st.Puts != 1 || st.Gets != 2 || st.Misses != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if st.BytesStored != kvstore.PageSize {
			t.Fatalf("BytesStored = %d", st.BytesStored)
		}
	})

	t.Run("MultiGetOrderingAndPartialMiss", func(t *testing.T) {
		s := factory()
		// Store the even-indexed keys only; the batch interleaves hits and
		// misses in an order unrelated to insertion order.
		var keys []kvstore.Key
		for i := 0; i < 6; i++ {
			key := kvstore.MakeKey(uint64(0x200000+i*kvstore.PageSize), 4)
			keys = append(keys, key)
			if i%2 == 0 {
				if _, err := s.Put(0, key, Page(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		batch := []kvstore.Key{keys[5], keys[0], keys[3], keys[4], keys[1], keys[2], keys[0]}
		pages, done, err := s.MultiGet(time.Microsecond, batch)
		if err != nil {
			t.Fatal(err)
		}
		if done < time.Microsecond {
			t.Fatalf("completion %v before submission", done)
		}
		if len(pages) != len(batch) {
			t.Fatalf("result length %d, want %d (aligned with keys)", len(pages), len(batch))
		}
		wantTag := map[kvstore.Key]byte{keys[0]: 0, keys[2]: 2, keys[4]: 4}
		for i, key := range batch {
			tag, hit := wantTag[key]
			if !hit {
				if pages[i] != nil {
					t.Fatalf("entry %d: missing key returned %d bytes, want nil", i, len(pages[i]))
				}
				continue
			}
			if pages[i] == nil {
				t.Fatalf("entry %d: stored key returned nil", i)
			}
			if len(pages[i]) != kvstore.PageSize {
				t.Fatalf("entry %d: short page (%d bytes)", i, len(pages[i]))
			}
			if !bytes.Equal(pages[i], Page(tag)) {
				t.Fatalf("entry %d: page corrupted or misaligned", i)
			}
		}
	})

	t.Run("MultiGetEmpty", func(t *testing.T) {
		s := factory()
		pages, done, err := s.MultiGet(5*time.Microsecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) != 0 {
			t.Fatalf("empty batch returned %d entries", len(pages))
		}
		if done < 5*time.Microsecond {
			t.Fatalf("completion %v before submission", done)
		}
	})

	t.Run("MultiGetAmortised", func(t *testing.T) {
		const n = 32
		populate := func(s kvstore.Store) []kvstore.Key {
			var keys []kvstore.Key
			for i := 0; i < n; i++ {
				key := kvstore.MakeKey(uint64(0x300000+i*kvstore.PageSize), 1)
				keys = append(keys, key)
				if _, err := s.Put(0, key, Page(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			return keys
		}
		serial := factory()
		keys := populate(serial)
		var serialDone time.Duration
		for _, key := range keys {
			_, done, err := serial.Get(serialDone, key)
			if err != nil {
				t.Fatal(err)
			}
			serialDone = done
		}
		batched := factory()
		keys = populate(batched)
		_, batchDone, err := batched.MultiGet(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		if batchDone >= serialDone {
			t.Fatalf("MultiGet (%v) should beat %d serial Gets (%v)", batchDone, n, serialDone)
		}
	})

	t.Run("MultiGetStats", func(t *testing.T) {
		s := factory()
		a := kvstore.MakeKey(0x400000, 2)
		b := kvstore.MakeKey(0x401000, 2)
		missing := kvstore.MakeKey(0x402000, 2)
		for _, key := range []kvstore.Key{a, b} {
			if _, err := s.Put(0, key, Page(1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.MultiGet(0, []kvstore.Key{a, missing, b}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.MultiGets != 1 || st.Gets != 3 || st.Misses != 1 {
			t.Fatalf("stats after MultiGet = %+v, want MultiGets=1 Gets=3 Misses=1", st)
		}
	})

	t.Run("MultiPutHandOver", func(t *testing.T) {
		s := factory()
		var keys []kvstore.Key
		for i := 0; i < 16; i++ {
			keys = append(keys, kvstore.MakeKey(uint64(0x500000+i*kvstore.PageSize), 4))
		}
		var now time.Duration
		for round := 0; round < 3; round++ {
			pages := make([][]byte, len(keys))
			want := make([][]byte, len(keys))
			for i := range keys {
				pages[i], want[i] = Page(byte(round*16+i)), Page(byte(round*16+i))
			}
			done, err := s.MultiPut(now, keys, pages)
			if err != nil {
				t.Fatal(err)
			}
			// From the second round on every key already holds a page.
			checkHandOver(t, s, done, keys, pages, want, round > 0)
			now = done
		}
	})

	t.Run("MultiPutDuplicateKeys", func(t *testing.T) {
		s := factory()
		twice, other := kvstore.MakeKey(0x600000, 4), kvstore.MakeKey(0x601000, 4)
		keys := []kvstore.Key{twice, other, twice}
		done, err := s.MultiPut(0, keys, [][]byte{Page(1), Page(2), Page(3)})
		if err != nil {
			t.Fatal(err)
		}
		// Last wins, and the first version's buffer is not handed back twice.
		pages := [][]byte{Page(4), Page(5), Page(6)}
		if done, err = s.MultiPut(done, keys, pages); err != nil {
			t.Fatal(err)
		}
		checkHandOver(t, s, done, keys, pages, [][]byte{Page(6), Page(5), Page(6)}, true)
	})

	t.Run("PutCopies", func(t *testing.T) {
		// Single Put keeps copy semantics: the caller reuses its buffer.
		s := factory()
		key := kvstore.MakeKey(0x610000, 4)
		buf := Page(0)
		for tag := byte(1); tag <= 3; tag++ {
			copy(buf, Page(tag))
			done, err := s.Put(0, key, buf)
			if err != nil {
				t.Fatal(err)
			}
			Scribble(buf)
			if got, _, err := s.Get(done, key); err != nil || !bytes.Equal(got, Page(tag)) {
				t.Fatalf("Put %d did not copy: the caller's later writes show in Get (err %v)", tag, err)
			}
		}
	})

	// The error-path contract rides along with the happy-path suite so no
	// backend can pass conformance while mishandling failures.
	RunErrorPaths(t, factory)

	t.Run("ReadStableUntilWrite", func(t *testing.T) {
		ReadStableUntilWrite(t, factory())
	})

	t.Run("PartitionIsolation", func(t *testing.T) {
		s := factory()
		// The same page address in two partitions must be independent.
		a := kvstore.MakeKey(0x70000, 1)
		b := kvstore.MakeKey(0x70000, 2)
		if _, err := s.Put(0, a, Page(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(0, b, Page(2)); err != nil {
			t.Fatal(err)
		}
		ga, _, _ := s.Get(0, a)
		gb, _, _ := s.Get(0, b)
		if !bytes.Equal(ga, Page(1)) || !bytes.Equal(gb, Page(2)) {
			t.Fatal("partitions interfere")
		}
	})
}

// Churn is one round of a backend's own background work — cleaning, capacity
// eviction, crash and recovery, draining — run by ReadStableUntilWrite between
// its checks. It starts at virtual time now and returns when it is done. It
// may write and delete OtherKey keys, never the held ones.
type Churn func(t *testing.T, now time.Duration) time.Duration

// ReadStableUntilWrite holds the buffers of heldKeys keys, and its own churn
// writes, reads and deletes the first otherKeys OtherKey keys.
const (
	heldKeys  = 24
	otherKeys = 256
)

// heldKey is the i-th key whose read buffer ReadStableUntilWrite holds.
func heldKey(i int) kvstore.Key { return kvstore.MakeKey(0x4000_0000+uint64(i)*kvstore.PageSize, 7) }

// OtherKey is the i-th key ReadStableUntilWrite never holds (any i >= 0): its
// own churn uses the first 256, and a Churn may use any.
func OtherKey(i int) kvstore.Key { return kvstore.MakeKey(0x8000_0000+uint64(i)*kvstore.PageSize, 7) }

// ReadStableUntilWrite holds s to the read contract the monitor's shared
// frames rest on (kvstore.Store): a buffer Get, MultiGet or StartGet returned
// keeps its bytes, and is not handed out again, until its own key is next
// written or deleted in s. It reads a set of held keys through all three
// calls and keeps the buffers with their digests; then, round after round, it
// churns other keys — MultiPut hand-overs (whose handed-back buffers it
// scribbles over, as their new owner may), Puts, Deletes and reads — and runs
// each of the backend's own churns, checking after every round that each held
// buffer still digests as read and that no buffer handed out since is one of
// them. Last it writes or deletes the held keys one by one; a released
// buffer is the store's again and stops being checked.
func ReadStableUntilWrite(t *testing.T, s kvstore.Store, churns ...Churn) {
	t.Helper()
	now := time.Duration(0)
	step := func(done time.Duration, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = max(now, done)
	}
	for i := 0; i < heldKeys; i++ {
		step(s.Put(now, heldKey(i), Page(byte(i))))
	}
	for i := 0; i < otherKeys; i += 2 {
		step(s.Put(now, OtherKey(i), Page(byte(i))))
	}

	// Hold a third of the keys' buffers from each read call.
	held := map[kvstore.Key][]byte{}
	sums := map[kvstore.Key]uint64{}
	hold := func(i int, buf []byte) {
		t.Helper()
		key := heldKey(i)
		if !bytes.Equal(buf, Page(byte(i))) {
			t.Fatalf("%v reads wrong bytes before any churn", key)
		}
		held[key], sums[key] = buf, digest(buf)
	}
	var multi []kvstore.Key
	for i := 0; i < heldKeys; i++ {
		switch i % 3 {
		case 0:
			buf, done, err := s.Get(now, heldKey(i))
			step(done, err)
			hold(i, buf)
		case 1:
			multi = append(multi, heldKey(i))
		default:
			pending := s.StartGet(now, heldKey(i))
			buf, done, err := pending.Wait(now)
			step(done, err)
			hold(i, buf)
		}
	}
	bufs, done, err := s.MultiGet(now, multi)
	step(done, err)
	for j := range multi {
		hold(3*j+1, bufs[j])
	}
	isHeld := func(buf []byte) bool {
		for _, h := range held {
			if len(buf) > 0 && &buf[0] == &h[0] {
				return true
			}
		}
		return false
	}
	check := func(when string) {
		t.Helper()
		for key, buf := range held {
			if digest(buf) != sums[key] {
				t.Fatalf("%s: the buffer read for %v changed before its key was written or deleted", when, key)
			}
		}
	}

	for round := 0; round < 48; round++ {
		keys := make([]kvstore.Key, 8)
		pages := make([][]byte, 8)
		for j := range keys {
			keys[j], pages[j] = OtherKey((round*29+j*37)%otherKeys), Page(byte(round+j))
		}
		step(s.MultiPut(now, keys, pages))
		for j, p := range pages {
			if isHeld(p) {
				t.Fatalf("round %d: MultiPut handed back the held buffer of a key it did not write (slot %d)", round, j)
			}
			if p != nil {
				Scribble(p)
			}
		}
		for j := 0; j < 4; j++ {
			step(s.Put(now, OtherKey((round*13+j*61)%otherKeys), Page(byte(round*j))))
		}
		for j := 0; j < 2; j++ {
			if done, err := s.Delete(now, OtherKey((round*7+j*101)%otherKeys)); err == nil || errors.Is(err, kvstore.ErrNotFound) {
				now = max(now, done)
			} else {
				t.Fatal(err)
			}
		}
		for j := 0; j < 4; j++ {
			buf, done, err := s.Get(now, OtherKey((round*11+j*53)%otherKeys))
			if err == nil && isHeld(buf) {
				t.Fatalf("round %d: a read of another key returned a held buffer", round)
			}
			if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatal(err)
			}
			now = max(now, done)
		}
		for _, churn := range churns {
			now = max(now, churn(t, now))
		}
		check(fmt.Sprintf("round %d", round))
	}

	// Release the held keys one by one, by each kind of write and by delete.
	for i := 0; i < heldKeys; i++ {
		key := heldKey(i)
		delete(held, key)
		switch i % 3 {
		case 0:
			step(s.Put(now, key, Page(0xA0)))
		case 1:
			step(s.MultiPut(now, []kvstore.Key{key}, [][]byte{Page(0xA1)}))
		default:
			if done, err := s.Delete(now, key); err == nil || errors.Is(err, kvstore.ErrNotFound) {
				now = max(now, done)
			} else {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("after releasing %v", key))
	}
}

// RunErrorPaths exercises the failure half of the Store contract: exactly
// which sentinel error each misuse must surface, and that a failed operation
// leaves no partial state behind. The fault-handling layer keys its
// retry/permanent decision off these sentinels, so a backend wrapping a
// transient error in ErrNotFound (or vice versa) silently breaks resilience.
func RunErrorPaths(t *testing.T, factory Factory) {
	t.Run("GetAfterDeleteNotFound", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x80000, 1)
		if _, err := s.Put(0, key, Page(4)); err != nil {
			t.Fatal(err)
		}
		done, err := s.Delete(time.Microsecond, key)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(done, key); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
		}
		// Split reads must agree with synchronous reads on missing keys.
		p := s.StartGet(done, key)
		if _, _, err := p.Wait(done); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("StartGet after Delete: err = %v, want ErrNotFound", err)
		}
	})

	t.Run("ShortPageRejected", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x81000, 1)
		if _, err := s.Put(0, key, make([]byte, kvstore.PageSize-1)); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("short page: err = %v, want ErrBadValue", err)
		}
		if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("rejected Put left state behind: %v", err)
		}
	})

	t.Run("OversizedPageRejected", func(t *testing.T) {
		s := factory()
		key := kvstore.MakeKey(0x82000, 1)
		if _, err := s.Put(0, key, make([]byte, kvstore.PageSize+1)); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("oversized page: err = %v, want ErrBadValue", err)
		}
		if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("rejected Put left state behind: %v", err)
		}
	})

	t.Run("NilPageRejected", func(t *testing.T) {
		s := factory()
		if _, err := s.Put(0, kvstore.MakeKey(0x83000, 1), nil); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("nil page: err = %v, want ErrBadValue", err)
		}
	})

	t.Run("MultiPutLengthMismatch", func(t *testing.T) {
		s := factory()
		keys := []kvstore.Key{kvstore.MakeKey(0x84000, 1), kvstore.MakeKey(0x85000, 1)}
		if _, err := s.MultiPut(0, keys, [][]byte{Page(1)}); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("mismatched lengths: err = %v, want ErrBadValue", err)
		}
		if _, err := s.MultiPut(0, nil, [][]byte{Page(1)}); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("nil keys: err = %v, want ErrBadValue", err)
		}
	})

	t.Run("MultiGetMissIsNotAnError", func(t *testing.T) {
		// A batch of entirely absent keys succeeds with all-nil entries;
		// ErrNotFound is a per-key Get sentinel, never a batch failure. A
		// wrapper turning misses into batch errors would make the monitor's
		// batched demand+prefetch read fail on cold pages.
		s := factory()
		batch := []kvstore.Key{kvstore.MakeKey(0x88000, 1), kvstore.MakeKey(0x89000, 1)}
		pages, _, err := s.MultiGet(0, batch)
		if err != nil {
			t.Fatalf("all-miss batch: err = %v, want nil", err)
		}
		for i, p := range pages {
			if p != nil {
				t.Fatalf("entry %d: got %d bytes for a key Get reports ErrNotFound for", i, len(p))
			}
		}
		// And the per-key view must agree.
		if _, _, err := s.Get(0, batch[0]); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("Get of missing key: err = %v, want ErrNotFound", err)
		}
	})

	t.Run("MultiGetAgreesWithGetAfterDelete", func(t *testing.T) {
		s := factory()
		kept := kvstore.MakeKey(0x8a000, 1)
		dropped := kvstore.MakeKey(0x8b000, 1)
		for _, key := range []kvstore.Key{kept, dropped} {
			if _, err := s.Put(0, key, Page(5)); err != nil {
				t.Fatal(err)
			}
		}
		done, err := s.Delete(0, dropped)
		if err != nil {
			t.Fatal(err)
		}
		pages, _, err := s.MultiGet(done, []kvstore.Key{dropped, kept})
		if err != nil {
			t.Fatal(err)
		}
		if pages[0] != nil {
			t.Fatal("deleted key resurfaced in MultiGet")
		}
		if !bytes.Equal(pages[1], Page(5)) {
			t.Fatal("surviving key corrupted or misaligned after delete")
		}
	})

	t.Run("MultiPutBadPage", func(t *testing.T) {
		// A batch rejected for validation must be atomic: even entries
		// preceding the bad page must not become visible (the write-back
		// engine treats a failed flush as not-flushed and may retry or
		// steal; partially applied batches would fork the two copies).
		s := factory()
		keys := []kvstore.Key{kvstore.MakeKey(0x86000, 1), kvstore.MakeKey(0x87000, 1)}
		pages := [][]byte{Page(1), []byte("short")}
		if err := MultiPutMustFail(t, s, 0, keys, pages); !errors.Is(err, kvstore.ErrBadValue) {
			t.Fatalf("bad page in batch: err = %v, want ErrBadValue", err)
		}
		for i, key := range keys {
			if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("entry %d of rejected batch became visible (err = %v)", i, err)
			}
		}
		if st := s.Stats(); st.MultiPuts != 0 || st.BytesStored != 0 {
			t.Fatalf("rejected batch counted/stored: %+v", st)
		}
	})
}

// Scribble overwrites a buffer its caller owns, as the next user of a
// recycled buffer would, with a byte no Page holds throughout (and no test
// harness uses as a page tag), so whoever still reads the buffer shows.
func Scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xFD
	}
}

// checkHandOver verifies the success half of the MultiPut hand-over contract
// on what a batch left in pages: each slot nil (only if the key was new) or
// one whole page, no buffer handed back twice, and — after the test has
// scribbled over all of them, as their new owner may — every key still reads
// want, from a buffer that was not handed back.
func checkHandOver(t *testing.T, s kvstore.Store, now time.Duration, keys []kvstore.Key, pages, want [][]byte, existed bool) {
	t.Helper()
	handed := map[*byte]bool{}
	for i, p := range pages {
		switch {
		case p == nil && existed:
			t.Fatalf("pages[%d] came back nil for a key that held a page", i)
		case p == nil:
			continue
		case len(p) != kvstore.PageSize:
			t.Fatalf("pages[%d] came back %d bytes long", i, len(p))
		case handed[&p[0]]:
			t.Fatalf("pages[%d] was handed back twice", i)
		}
		handed[&p[0]] = true
		Scribble(p)
	}
	for i, key := range keys {
		got, _, err := s.Get(now, key)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("key %d does not read what was written once the handed-back buffers are reused", i)
		}
		if handed[&got[0]] {
			t.Fatalf("key %d is served from a buffer MultiPut handed back", i)
		}
	}
}

// MultiPutMustFail submits a batch that s is set up to refuse, returns the
// error, and checks the failure half of the hand-over contract: every pages[i]
// is still the buffer that was passed, bytes intact, so a retry of the same
// slice writes the right data.
func MultiPutMustFail(t *testing.T, s kvstore.Store, now time.Duration, keys []kvstore.Key, pages [][]byte) error {
	t.Helper()
	passed := append([][]byte(nil), pages...)
	want := make([][]byte, len(pages))
	for i, p := range pages {
		want[i] = append([]byte(nil), p...)
	}
	_, err := s.MultiPut(now, keys, pages)
	if err == nil {
		t.Fatal("MultiPut succeeded, want an error")
	}
	for i, p := range pages {
		if len(p) != len(passed[i]) || len(p) > 0 && &p[0] != &passed[i][0] || !bytes.Equal(p, want[i]) {
			t.Fatalf("failed MultiPut (%v) took or changed pages[%d]", err, i)
		}
	}
	return err
}

// Poisoned is the aliasing net for code that writes through MultiPut: a
// decorator that, after every successful batch, fills each buffer the store
// left in pages with Scribble — the store may do anything to a buffer it
// gives away — and holds every later read to its own digest of the page last
// written under the key. A caller that still reads a buffer it handed over,
// or reuses the one it queued instead of the one it got back, fails the test
// at the first read that shows it. It adds no latency and draws no
// randomness, so a run through it must equal the run without it.
type Poisoned struct {
	kvstore.Store
	tb      testing.TB
	written map[kvstore.Key]uint64
}

// Poison wraps s in the aliasing net.
func Poison(tb testing.TB, s kvstore.Store) *Poisoned {
	return &Poisoned{Store: s, tb: tb, written: map[kvstore.Key]uint64{}}
}

var digestSeed = maphash.MakeSeed()

func digest(page []byte) uint64 { return maphash.Bytes(digestSeed, page) }

// check holds one read to the digest of the last successful write.
func (p *Poisoned) check(op string, key kvstore.Key, data []byte) {
	p.tb.Helper()
	if want, ok := p.written[key]; !ok || digest(data) != want {
		p.tb.Fatalf("aliasing net: %s of %v does not return the page last written under it (known key: %v, first byte %#x)",
			op, key, ok, data[0])
	}
}

// Put implements kvstore.Store.
func (p *Poisoned) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	done, err := p.Store.Put(now, key, page)
	if err == nil {
		p.written[key] = digest(page)
	}
	return done, err
}

// MultiPut implements kvstore.Store.
func (p *Poisoned) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	sums := make([]uint64, len(pages))
	for i, page := range pages {
		sums[i] = digest(page)
	}
	done, err := p.Store.MultiPut(now, keys, pages)
	if err != nil {
		return done, err
	}
	for i, key := range keys {
		p.written[key] = sums[i]
		Scribble(pages[i])
	}
	return done, nil
}

// Get implements kvstore.Store.
func (p *Poisoned) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	data, done, err := p.Store.Get(now, key)
	if err == nil {
		p.check("Get", key, data)
	}
	return data, done, err
}

// MultiGet implements kvstore.Store.
func (p *Poisoned) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	pages, done, err := p.Store.MultiGet(now, keys)
	if err == nil {
		for i, page := range pages {
			if page != nil {
				p.check("MultiGet", keys[i], page)
			}
		}
	}
	return pages, done, err
}

// StartGet implements kvstore.Store.
func (p *Poisoned) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	pending := p.Store.StartGet(now, key)
	if pending.Err == nil {
		p.check("StartGet", key, pending.Data)
	}
	return pending
}

// Delete implements kvstore.Store.
func (p *Poisoned) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	done, err := p.Store.Delete(now, key)
	if err == nil {
		delete(p.written, key)
	}
	return done, err
}

// Local passes the inner store's locality through, as the monitor probes it.
func (p *Poisoned) Local() bool {
	l, ok := p.Store.(kvstore.Local)
	return ok && l.Local()
}

// Verify reads every key the net knows back through it, for callers that
// never read on their own.
func (p *Poisoned) Verify(now time.Duration) {
	p.tb.Helper()
	for key := range p.written {
		if _, _, err := p.Get(now, key); err != nil {
			p.tb.Fatalf("aliasing net: %v was written but reads %v", key, err)
		}
	}
}

// BenchMultiPut is a backend's ledger row for the write-back path: one batch
// of n pages per op over a fixed key set, so every write is an overwrite, and
// one pages slice submitted over and over, as a flush's scratch is — what
// comes back in it is what goes out next.
func BenchMultiPut(b *testing.B, s kvstore.Store, n int) {
	const keySpace = 1024
	for i := 0; i < keySpace; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), Page(3)); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]kvstore.Key, n)
	pages := make([][]byte, n)
	for j := range pages {
		pages[j] = Page(byte(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = kvstore.MakeKey(uint64((i*n+j)%keySpace)*kvstore.PageSize, 1)
		}
		done, err := s.MultiPut(now, keys, pages)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}
