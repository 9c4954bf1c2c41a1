package replicated

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/storetest"
)

func threeWay(t *testing.T) (*Store, []kvstore.Store) {
	t.Helper()
	members := []kvstore.Store{
		ramcloud.New(ramcloud.DefaultParams(), 1),
		ramcloud.New(ramcloud.DefaultParams(), 2),
		ramcloud.New(ramcloud.DefaultParams(), 3),
	}
	s, err := New(members...)
	if err != nil {
		t.Fatal(err)
	}
	return s, members
}

func TestConformance(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		s, err := New(
			dram.New(dram.DefaultParams(), 1),
			dram.New(dram.DefaultParams(), 2),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil member accepted")
	}
}

func TestWritesReachAllMembers(t *testing.T) {
	s, members := threeWay(t)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(5)); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		data, _, err := m.Get(0, key)
		if err != nil {
			t.Fatalf("member %d missing the page: %v", i, err)
		}
		if !bytes.Equal(data, storetest.Page(5)) {
			t.Fatalf("member %d corrupted", i)
		}
	}
}

func TestWriteCompletionIsSlowestMember(t *testing.T) {
	fast := dram.New(dram.DefaultParams(), 1)
	slow := ramcloud.New(ramcloud.DefaultParams(), 2)
	s, err := New(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Put(0, kvstore.MakeKey(0x1000, 1), storetest.Page(1))
	if err != nil {
		t.Fatal(err)
	}
	if done < 10*time.Microsecond {
		t.Fatalf("completion %v ignores the slow member", done)
	}
}

func TestReadFailover(t *testing.T) {
	s, _ := threeWay(t)
	key := kvstore.MakeKey(0x2000, 1)
	if _, err := s.Put(0, key, storetest.Page(9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Get(0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, storetest.Page(9)) {
		t.Fatal("failover read corrupted")
	}
	if s.Counters().Failovers == 0 {
		t.Fatal("failover not counted")
	}
}

func TestSurvivesTwoOfThreeCrashes(t *testing.T) {
	s, _ := threeWay(t)
	key := kvstore.MakeKey(0x3000, 1)
	if _, err := s.Put(0, key, storetest.Page(3)); err != nil {
		t.Fatal(err)
	}
	s.Fail(0)
	s.Fail(1)
	if _, _, err := s.Get(0, key); err != nil {
		t.Fatalf("read with one survivor: %v", err)
	}
	// Writes keep working on the survivor.
	if _, err := s.Put(0, kvstore.MakeKey(0x4000, 1), storetest.Page(4)); err != nil {
		t.Fatal(err)
	}
}

func TestAllDown(t *testing.T) {
	s, _ := threeWay(t)
	key := kvstore.MakeKey(0x5000, 1)
	s.Put(0, key, storetest.Page(1))
	for i := 0; i < 3; i++ {
		s.Fail(i)
	}
	if _, _, err := s.Get(0, key); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("read err = %v", err)
	}
	if _, err := s.Put(0, key, storetest.Page(1)); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := s.Delete(0, key); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("delete err = %v", err)
	}
}

func TestRecoveredMemberMissesFailOver(t *testing.T) {
	s, _ := threeWay(t)
	s.Fail(0)
	key := kvstore.MakeKey(0x6000, 1)
	// Written while member 0 is down: only members 1 and 2 have it.
	if _, err := s.Put(0, key, storetest.Page(7)); err != nil {
		t.Fatal(err)
	}
	s.Recover(0)
	// Primary (0) misses; the read must fail over and still succeed.
	data, _, err := s.Get(0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, storetest.Page(7)) {
		t.Fatal("failover-after-recovery corrupted")
	}
}

func TestReadRepairThenPrimaryCrashLosesNothing(t *testing.T) {
	// The recovery-gap scenario ISSUE calls out: a member crashes, misses
	// writes, recovers, and later the members that DID see the writes crash.
	// Without repair the recovered member serves nothing and the pages are
	// gone; with read-repair the heal phase back-fills it.
	s, members := threeWay(t)
	s.Fail(0)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(0x10000+i*kvstore.PageSize), 1), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Recover(0)
	// Heal phase: every read finds the primary (0) missing the key, fails
	// over, and back-fills the copy.
	for i := 0; i < n; i++ {
		if _, _, err := s.Get(0, kvstore.MakeKey(uint64(0x10000+i*kvstore.PageSize), 1)); err != nil {
			t.Fatalf("heal read %d: %v", i, err)
		}
	}
	if got := s.Counters().ReadRepairs; got != n {
		t.Fatalf("ReadRepairs = %d, want %d", got, n)
	}
	// Member 0 must now hold real copies, not rely on the others.
	for i := 0; i < n; i++ {
		data, _, err := members[0].Get(0, kvstore.MakeKey(uint64(0x10000+i*kvstore.PageSize), 1))
		if err != nil {
			t.Fatalf("member 0 not back-filled for key %d: %v", i, err)
		}
		if !bytes.Equal(data, storetest.Page(byte(i))) {
			t.Fatalf("repair corrupted key %d", i)
		}
	}
	// Now the only members that originally saw the writes crash.
	s.Fail(1)
	s.Fail(2)
	for i := 0; i < n; i++ {
		data, _, err := s.Get(0, kvstore.MakeKey(uint64(0x10000+i*kvstore.PageSize), 1))
		if err != nil {
			t.Fatalf("page %d lost after heal-then-crash: %v", i, err)
		}
		if !bytes.Equal(data, storetest.Page(byte(i))) {
			t.Fatalf("page %d corrupted after heal-then-crash", i)
		}
	}
}

func TestResyncBackfillsRecoveredMember(t *testing.T) {
	s, members := threeWay(t)
	s.Fail(0)
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(0x20000+i*kvstore.PageSize), 1), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Recover(0)
	done, repaired, err := s.Resync(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != n {
		t.Fatalf("repaired = %d, want %d", repaired, n)
	}
	if done <= time.Millisecond {
		t.Fatal("Resync charged no virtual time")
	}
	// One sweep converges: the recovered member can serve alone.
	s.Fail(1)
	s.Fail(2)
	for i := 0; i < n; i++ {
		data, _, err := s.Get(done, kvstore.MakeKey(uint64(0x20000+i*kvstore.PageSize), 1))
		if err != nil {
			t.Fatalf("page %d not resynced: %v", i, err)
		}
		if !bytes.Equal(data, storetest.Page(byte(i))) {
			t.Fatalf("page %d corrupted by resync", i)
		}
	}
	_ = members
	// A second sweep finds nothing to do.
	if _, repaired, _ := s.Resync(done); repaired != 0 {
		t.Fatalf("idempotent resync repaired %d copies", repaired)
	}
}

func TestDeleteNotResurrected(t *testing.T) {
	// A member that was down during a Delete keeps a stale copy; neither
	// reads nor Resync may resurrect the key.
	s, members := threeWay(t)
	key := kvstore.MakeKey(0x30000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); err != nil {
		t.Fatal(err)
	}
	s.Fail(0) // member 0 sleeps through the delete
	if _, err := s.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	s.Recover(0)
	// Member 0 still physically holds the page…
	if _, _, err := members[0].Get(0, key); err != nil {
		t.Fatalf("test setup: stale copy should exist: %v", err)
	}
	// …but the wrapper must say gone.
	if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	if _, repaired, _ := s.Resync(0); repaired != 0 {
		t.Fatalf("resync resurrected a deleted key (%d repairs)", repaired)
	}
	if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key resurrected after resync: %v", err)
	}
}

func TestFailedDeleteChangesNothing(t *testing.T) {
	// A delete no member accepted returns an error, so it must not have
	// happened: once the members are back the page is still there. Both ways
	// of reaching nobody are covered — every member down, every member
	// erroring.
	s, members := threeWay(t)
	key := kvstore.MakeKey(0x31000, 1)
	if _, err := s.Put(0, key, storetest.Page(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Fail(i)
	}
	if _, err := s.Delete(0, key); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("delete with every member down: err = %v", err)
	}
	for i := 0; i < 3; i++ {
		s.Recover(i)
	}
	if data, _, err := s.Get(0, key); err != nil || !bytes.Equal(data, storetest.Page(4)) {
		t.Fatalf("page gone after a delete that failed: %v", err)
	}

	healthy := append([]kvstore.Store(nil), members...)
	for i, m := range healthy {
		s.set.members[i] = erroringStore{inner: m}
	}
	if _, err := s.Delete(0, key); !errors.Is(err, errBroken) {
		t.Fatalf("delete with every member erroring: err = %v", err)
	}
	copy(s.set.members, healthy)
	if data, _, err := s.Get(0, key); err != nil || !bytes.Equal(data, storetest.Page(4)) {
		t.Fatalf("page gone after a delete that failed: %v", err)
	}

	// A key that is not live has nothing to delete: that succeeds even with
	// every member down, and still reads as absent afterwards.
	for i := 0; i < 3; i++ {
		s.Fail(i)
	}
	absent := kvstore.MakeKey(0x32000, 1)
	if _, err := s.Delete(0, absent); err != nil {
		t.Fatalf("delete of an absent key with every member down: %v", err)
	}
	for i := 0; i < 3; i++ {
		s.Recover(i)
	}
	if _, _, err := s.Get(0, absent); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("absent key after delete: err = %v", err)
	}
}

func TestUnavailableIsNotNotFound(t *testing.T) {
	// A live key whose holders are all down is transient (ErrUnavailable),
	// not ErrNotFound: the resilience layer retries the former and gives up
	// on the latter, so conflating them would turn an outage into data loss.
	s, _ := threeWay(t)
	s.Fail(0)
	key := kvstore.MakeKey(0x40000, 1)
	if _, err := s.Put(0, key, storetest.Page(8)); err != nil {
		t.Fatal(err)
	}
	s.Recover(0) // member 0 is up but missed the write
	s.Fail(1)
	s.Fail(2)
	_, _, err := s.Get(0, key)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, kvstore.ErrNotFound) {
		t.Fatal("ErrUnavailable must not satisfy ErrNotFound")
	}
	// Recovery makes the same read succeed — and back-fill member 0.
	s.Recover(1)
	data, _, err := s.Get(0, key)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(data, storetest.Page(8)) {
		t.Fatal("recovered read corrupted")
	}
	if s.Counters().ReadRepairs == 0 {
		t.Fatal("recovery read did not repair the gap member")
	}
}

func TestMemberErrorFailsOver(t *testing.T) {
	// An erroring (not crashed) primary must be skipped, not surfaced: the
	// wrapper masks any failure some healthy replica can serve.
	s, members := threeWay(t)
	key := kvstore.MakeKey(0x50000, 1)
	if _, err := s.Put(0, key, storetest.Page(6)); err != nil {
		t.Fatal(err)
	}
	// Replace the primary with one that always errors.
	s.set.members[0] = erroringStore{inner: members[0]}
	data, _, err := s.Get(0, key)
	if err != nil {
		t.Fatalf("read with erroring primary: %v", err)
	}
	if !bytes.Equal(data, storetest.Page(6)) {
		t.Fatal("failover read corrupted")
	}
	if s.Counters().MemberErrors == 0 {
		t.Fatal("member error not counted")
	}
}

func TestSplitReadFailoverCountsOnce(t *testing.T) {
	// A split read whose primary fails is one logical read: it counts one
	// Get, one member error and one failover, exactly as Get does, and the
	// sweep that serves it does not try the failed primary a second time.
	for _, split := range []bool{false, true} {
		s, members := threeWay(t)
		key := kvstore.MakeKey(0x51000, 1)
		if _, err := s.Put(0, key, storetest.Page(6)); err != nil {
			t.Fatal(err)
		}
		s.set.members[0] = erroringStore{inner: members[0]}
		before := s.Stats().Gets
		var data []byte
		var err error
		if split {
			p := s.StartGet(0, key)
			data, _, err = p.Wait(p.ReadyAt)
		} else {
			data, _, err = s.Get(0, key)
		}
		if err != nil || !bytes.Equal(data, storetest.Page(6)) {
			t.Fatalf("split=%v: read with erroring primary: %v", split, err)
		}
		c := s.Counters()
		if gets := s.Stats().Gets - before; gets != 1 || c.MemberErrors != 1 || c.Failovers != 1 {
			t.Fatalf("split=%v: gets %d, member errors %d, failovers %d; want 1, 1, 1",
				split, gets, c.MemberErrors, c.Failovers)
		}
	}
}

// erroringStore fails every op with a transient error.
type erroringStore struct{ inner kvstore.Store }

var errBroken = errors.New("erroring: transient")

func (e erroringStore) Name() string { return "erroring" }
func (e erroringStore) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	return now, errBroken
}
func (e erroringStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	return now, errBroken
}
func (e erroringStore) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	return nil, now, errBroken
}
func (e erroringStore) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	return nil, now, errBroken
}
func (e erroringStore) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	return kvstore.PendingGet{Key: key, ReadyAt: now, Err: errBroken}
}
func (e erroringStore) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	return now, errBroken
}
func (e erroringStore) Stats() kvstore.Stats { return e.inner.Stats() }

func TestRotatePrimarySkipsDownMembers(t *testing.T) {
	s, _ := threeWay(t)
	if s.Primary() != 0 {
		t.Fatalf("initial primary = %d", s.Primary())
	}
	s.Fail(1)
	if got := s.RotatePrimary(); got != 2 {
		t.Fatalf("RotatePrimary = %d, want 2 (skipping down member 1)", got)
	}
	if got := s.RotatePrimary(); got != 0 {
		t.Fatalf("RotatePrimary = %d, want 0", got)
	}
}

func TestFailValidation(t *testing.T) {
	s, _ := threeWay(t)
	if err := s.Fail(9); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := s.Recover(-1); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestStartGetFailover(t *testing.T) {
	s, _ := threeWay(t)
	key := kvstore.MakeKey(0x7000, 1)
	s.Put(0, key, storetest.Page(2))
	s.Fail(0)
	p := s.StartGet(0, key)
	data, _, err := p.Wait(p.ReadyAt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, storetest.Page(2)) {
		t.Fatal("async failover corrupted")
	}
}

func TestMonitorRunsOnReplicatedStore(t *testing.T) {
	// End-to-end: FluidMem over a 2-way replicated RAMCloud survives a
	// member crash mid-workload with no page loss.
	s, err := New(
		ramcloud.New(ramcloud.DefaultParams(), 1),
		ramcloud.New(ramcloud.DefaultParams(), 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	runMonitorWorkload(t, s)
}

// runMonitorWorkload exercises a monitor over the given store and crashes
// replica 0 halfway through.
func runMonitorWorkload(t *testing.T, s *Store) {
	t.Helper()
	mon := newTestMonitor(t, s)
	const base = 0x7f00_0000_0000
	now := time.Duration(0)
	write := func(i int, tag byte) {
		data, done, err := mon.Touch(now, base+uint64(i)*kvstore.PageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = tag
	}
	check := func(i int, tag byte) {
		data, done, err := mon.Touch(now, base+uint64(i)*kvstore.PageSize, false)
		if err != nil {
			t.Fatalf("page %d after crash: %v", i, err)
		}
		now = done
		if data[0] != tag {
			t.Fatalf("page %d corrupted", i)
		}
	}
	for i := 0; i < 32; i++ {
		write(i, byte(i+1))
	}
	// Push everything to the store so the reads below must go remote.
	done, err := mon.Drain(now)
	if err != nil {
		t.Fatal(err)
	}
	now = done
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		check(i, byte(i+1))
	}
	if s.Counters().Failovers == 0 {
		t.Fatal("crash produced no failovers; test not exercising replication")
	}
}

// newTestMonitor wires a FluidMem monitor over the store with a small LRU
// and one registered range at 0x7f00_0000_0000.
func newTestMonitor(t *testing.T, s kvstore.Store) *core.Monitor {
	t.Helper()
	mon, err := core.NewMonitor(core.DefaultConfig(s, 8), nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.RegisterRange(0x7f00_0000_0000, 64*kvstore.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	return mon
}

// handOverBatch is a MultiPut batch of n fresh pages tagged from tag up.
func handOverBatch(n int, tag byte) (keys []kvstore.Key, pages [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, kvstore.MakeKey(uint64(0x9000+i*kvstore.PageSize), 1))
		pages = append(pages, storetest.Page(tag+byte(i)))
	}
	return keys, pages
}

func TestMultiPutFailureTakesNothing(t *testing.T) {
	// Every member down, and every member erroring: either way the batch
	// fails and the caller's buffers are exactly as passed.
	s, _ := threeWay(t)
	for i := 0; i < 3; i++ {
		s.Fail(i)
	}
	keys, pages := handOverBatch(4, 1)
	if err := storetest.MultiPutMustFail(t, s, 0, keys, pages); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("err = %v, want ErrAllReplicasDown", err)
	}
	broken := erroringStore{dram.New(dram.DefaultParams(), 1)}
	s, err := New(broken, broken)
	if err != nil {
		t.Fatal(err)
	}
	if err := storetest.MultiPutMustFail(t, s, 0, keys, pages); !errors.Is(err, errBroken) {
		t.Fatalf("err = %v, want the member error", err)
	}
}

func TestMultiPutHandsOneMemberTheCallersBuffers(t *testing.T) {
	// Three members hold three distinct buffers per key — the caller's own at
	// the last live member, copies at the others — and the caller gets one
	// back per overwritten key, whichever member is last.
	members := []*dram.Store{dram.New(dram.DefaultParams(), 1), dram.New(dram.DefaultParams(), 2), dram.New(dram.DefaultParams(), 3)}
	s, err := New(members[0], members[1], members[2])
	if err != nil {
		t.Fatal(err)
	}
	keys, pages := handOverBatch(8, 1)
	if _, err := s.MultiPut(0, keys, pages); err != nil {
		t.Fatal(err)
	}
	for round, down := range []int{-1, 2, 1} {
		if down >= 0 {
			s.Fail(down)
		}
		_, pages := handOverBatch(8, byte(20*(round+1)))
		passed := append([][]byte(nil), pages...)
		done, err := s.MultiPut(0, keys, pages)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if len(pages[i]) != kvstore.PageSize || &pages[i][0] == &passed[i][0] {
				t.Fatalf("round %d key %d: no replaced buffer handed back", round, i)
			}
			holders := 0
			for m, member := range members {
				got, _, err := member.Get(done, key)
				if s.down[m] {
					continue
				}
				if err != nil || !bytes.Equal(got, storetest.Page(byte(20*(round+1)+i))) {
					t.Fatalf("round %d key %d member %d: wrong data (%v)", round, i, m, err)
				}
				if &got[0] == &pages[i][0] {
					t.Fatalf("round %d key %d: member %d serves the buffer handed back", round, i, m)
				}
				if &got[0] == &passed[i][0] {
					holders++
				}
			}
			if holders != 1 {
				t.Fatalf("round %d key %d: %d members hold the caller's buffer, want 1", round, i, holders)
			}
		}
		if down >= 0 {
			s.Recover(down)
		}
	}
	if len(s.set.spares) != len(keys) {
		t.Fatalf("%d spare buffers kept for batches of %d", len(s.set.spares), len(keys))
	}
	// A last member that slept through a round (2, then 1, above) still had a
	// stale version to hand back. One that never saw the key has none, and the
	// slot must still not come back nil.
	fresh := dram.New(dram.DefaultParams(), 4)
	s.set.members[2] = fresh
	_, pages = handOverBatch(8, 100)
	if _, err := s.MultiPut(0, keys, pages); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if len(p) != kvstore.PageSize {
			t.Fatalf("key %d held a page but %d bytes came back", i, len(p))
		}
		if got, _, _ := fresh.Get(0, keys[i]); &got[0] == &p[0] {
			t.Fatalf("key %d: handed back the buffer the member serves", i)
		}
	}
}

func TestMultiPutLastMemberErrorKeepsCallersBuffers(t *testing.T) {
	// The last live member fails after the first took its copies: the write
	// succeeds, and the caller still owns — and may scribble on — its pages.
	good := dram.New(dram.DefaultParams(), 1)
	s, err := New(good, erroringStore{good})
	if err != nil {
		t.Fatal(err)
	}
	keys, pages := handOverBatch(4, 1)
	passed := append([][]byte(nil), pages...)
	done, err := s.MultiPut(0, keys, pages)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if &pages[i][0] != &passed[i][0] {
			t.Fatalf("key %d: buffer taken though the member it was offered to failed", i)
		}
		pages[i][0] ^= 0xFF
		if got, _, err := s.Get(done, key); err != nil || !bytes.Equal(got, storetest.Page(1+byte(i))) {
			t.Fatalf("key %d reads wrong after the caller reused its buffer (%v)", i, err)
		}
	}
	if s.Counters().PartialPuts != 1 {
		t.Fatalf("PartialPuts = %d, want 1", s.Counters().PartialPuts)
	}
}
