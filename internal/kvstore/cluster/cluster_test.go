package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/faulty"
	"fluidmem/internal/kvstore/storetest"
	"fluidmem/internal/trace"
)

func newPool(t *testing.T, nodes, replicas int, seed uint64) *cluster.Pool {
	t.Helper()
	p, err := cluster.New(cluster.Config{Nodes: nodes, Replicas: replicas, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The cluster pool must pass the same conformance suite as every other
// backend — bare, under the chaos wrapper at zero rates (which must be
// invisible), and under the trace decorator.
func TestConformance(t *testing.T) {
	storetest.Run(t, func() kvstore.Store { return newPool(t, 3, 2, 1) })
}

func TestConformanceUnderFaulty(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		return faulty.Wrap(newPool(t, 3, 2, 2), faulty.Uniform(0, 0), 99)
	})
}

func TestConformanceInstrumented(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		return kvstore.Instrumented(newPool(t, 3, 2, 3), trace.New(true))
	})
}

func TestConformanceUnderResilience(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		return resilience.Wrap(newPool(t, 3, 2, 4), resilience.DefaultPolicy(), 7)
	})
}

func TestConformanceSingleReplica(t *testing.T) {
	storetest.Run(t, func() kvstore.Store { return newPool(t, 3, 1, 5) })
}

// TestReadStableUnderMembership runs the read contract's check on a pool that
// crashes, recovers, resyncs, grows and drains under it: a crash drops the
// member's copies without touching their buffers, and a resync writes only
// members that lack the current version. The check's own traffic goes
// through the resilience layer, as the monitor's does, which retries a write
// that a membership change made stale.
func TestReadStableUnderMembership(t *testing.T) {
	p := newPool(t, 3, 2, 6)
	round, restored := 0, 0
	storetest.ReadStableUntilWrite(t, resilience.Wrap(p, resilience.DefaultPolicy(), 7), func(t *testing.T, now time.Duration) time.Duration {
		round++
		nodes := p.Committed().Nodes
		var err error
		switch round % 4 {
		case 1:
			// Over the rounds every position in the table takes its turn.
			err = p.Crash(now, nodes[round/4%len(nodes)].Name)
		case 2:
			var n int
			now, n, err = p.Recover(now)
			restored += n
			if err == nil {
				now, _ = p.Resync(now)
			}
		case 3:
			_, now, err = p.AddNode(now)
		default:
			if _, now, err = p.AddNode(now); err == nil {
				now, err = p.Drain(now, nodes[0].Name)
			}
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		return now
	})
	if restored == 0 {
		t.Fatal("no crash cost the pool a copy")
	}
}

// put seeds count pages across many partitions and returns their keys.
func put(t *testing.T, p *cluster.Pool, count int) ([]kvstore.Key, time.Duration) {
	t.Helper()
	var keys []kvstore.Key
	now := time.Duration(0)
	for i := 0; i < count; i++ {
		key := kvstore.MakeKey(uint64(0x100000+i*kvstore.PageSize), kvstore.PartitionID(i%64))
		done, err := p.Put(now, key, storetest.Page(byte(i)))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		now = done
		keys = append(keys, key)
	}
	return keys, now
}

// verify reads every key back and checks content.
func verify(t *testing.T, s kvstore.Store, keys []kvstore.Key, now time.Duration) time.Duration {
	t.Helper()
	for i, key := range keys {
		data, done, err := s.Get(now, key)
		if err != nil {
			t.Fatalf("get %d (%v): %v", i, key, err)
		}
		if !bytes.Equal(data, storetest.Page(byte(i))) {
			t.Fatalf("key %d corrupted", i)
		}
		now = done
	}
	return now
}

func TestCrashServedFromSurvivorThenRereplicated(t *testing.T) {
	p := newPool(t, 3, 2, 11)
	keys, now := put(t, p, 64)

	// Abrupt crash: every page had 2 copies, one of which may be gone.
	if err := p.Crash(now, "node0"); err != nil {
		t.Fatal(err)
	}
	// The headline guarantee: with R≥2 the BARE pool (no retry layer)
	// serves every read from a surviving replica, no error surfaced.
	now = verify(t, p, keys, now)
	if p.ClusterStats().Failovers == 0 {
		t.Fatal("no read failed over; crash test is vacuous")
	}

	// Recovery: controllers commit the shrunken table, resync re-replicates.
	done, copies, err := p.Recover(now)
	if err != nil {
		t.Fatal(err)
	}
	if copies == 0 {
		t.Fatal("recovery re-replicated nothing")
	}
	if got := len(p.Committed().Nodes); got != 2 {
		t.Fatalf("committed table has %d nodes after recovery, want 2", got)
	}
	verify(t, p, keys, done)

	// Every key must be back to full replication on the surviving nodes.
	if _, more := p.Resync(done); more != 0 {
		t.Fatalf("resync after recovery restored %d more copies, want 0", more)
	}
}

func TestDrainCopyThenCutover(t *testing.T) {
	p := newPool(t, 3, 2, 12)
	keys, now := put(t, p, 64)
	epoch := p.Committed().Epoch

	done, err := p.Drain(now, "node1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Committed().Epoch != epoch+1 {
		t.Fatalf("epoch = %d after drain, want %d", p.Committed().Epoch, epoch+1)
	}
	if p.Committed().Has("node1") {
		t.Fatal("drained node still in the committed table")
	}
	verify(t, p, keys, done)

	// Cannot shrink below the replication factor.
	if _, err := p.Drain(done, "node0"); !errors.Is(err, cluster.ErrTooFewNodes) {
		t.Fatalf("drain below R: err = %v, want ErrTooFewNodes", err)
	}
}

func TestDrainPartitionedNodeRefused(t *testing.T) {
	p := newPool(t, 3, 2, 13)
	if err := p.PartitionNode("node2"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Drain(0, "node2"); !errors.Is(err, cluster.ErrNodePartitioned) {
		t.Fatalf("drain of partitioned node: err = %v, want ErrNodePartitioned", err)
	}
}

func TestPartitionFailoverAndHeal(t *testing.T) {
	p := newPool(t, 3, 2, 14)
	keys, now := put(t, p, 64)

	// Cut off the preferred replica of keys[0] so both the read-failover
	// and the partial-write paths are guaranteed to trigger on that key.
	slots := p.Committed().Assign(keys[0].Partition())
	victim := fmt.Sprintf("node%d", slots[0])
	if err := p.PartitionNode(victim); err != nil {
		t.Fatal(err)
	}
	// Reads fail over; writes go partial but succeed.
	now = verify(t, p, keys, now)
	done, err := p.Put(now, keys[0], storetest.Page(200))
	if err != nil {
		t.Fatalf("write during partition: %v", err)
	}
	if p.ClusterStats().PartialPuts == 0 {
		t.Fatal("write during partition was not partial")
	}

	// Heal: the node rejoins and the resync restores it as a current
	// replica, including the overwrite it slept through.
	done, err = p.HealNode(done, victim)
	if err != nil {
		t.Fatal(err)
	}
	data, done, err := p.Get(done, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, storetest.Page(200)) {
		t.Fatal("stale copy served after heal")
	}
	if _, more := p.Resync(done); more != 0 {
		t.Fatalf("pool not converged after heal: %d copies still missing", more)
	}
}

func TestAddNodeStaleEpochHandshake(t *testing.T) {
	p := newPool(t, 3, 2, 15)
	keys, now := put(t, p, 32)

	name, done, err := p.AddNode(now)
	if err != nil {
		t.Fatal(err)
	}
	if name == "" || !p.Committed().Has(name) {
		t.Fatalf("added node %q not in committed table", name)
	}

	// The data path's cached table is deliberately stale: the first write
	// must be rejected by a node holding the new epoch, refreshing the
	// cache; the retry then lands on the new placement.
	_, err = p.Put(done, keys[0], storetest.Page(0))
	if !errors.Is(err, cluster.ErrStaleEpoch) {
		t.Fatalf("first write after AddNode: err = %v, want ErrStaleEpoch", err)
	}
	if _, err := p.Put(done, keys[0], storetest.Page(0)); err != nil {
		t.Fatalf("retry after refresh: %v", err)
	}
	st := p.ClusterStats()
	if st.StaleRejects == 0 || st.Refreshes == 0 {
		t.Fatalf("stale handshake not exercised: %+v", st)
	}
	verify(t, p, keys, done)
}

// The satellite requirement in one test: a stale-epoch reject is transient,
// so the resilience layer absorbs it — membership changes are invisible to
// a client routed through core/resilience.
func TestStaleEpochRetriedThroughResilience(t *testing.T) {
	p := newPool(t, 3, 2, 16)
	s := resilience.Wrap(p, resilience.DefaultPolicy(), 5)
	keys, now := put(t, p, 16)

	_, done, err := p.AddNode(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(done, keys[0], storetest.Page(50)); err != nil {
		t.Fatalf("resilient write across epoch change: %v", err)
	}
	if p.ClusterStats().StaleRejects == 0 {
		t.Fatal("no stale reject: the retry path was not exercised")
	}
	if s.ResilienceStats().Retries == 0 {
		t.Fatal("resilience layer recorded no retry")
	}
}

func TestRendezvousMinimalMovement(t *testing.T) {
	nodes := []cluster.NodeInfo{{Name: "node0", Slot: 0}, {Name: "node1", Slot: 1}, {Name: "node2", Slot: 2}}
	old := cluster.NewTable(1, 2, nodes, 3)
	grown := old.WithNode("node3")

	changed := 0
	for part := 0; part < kvstore.MaxPartitions; part++ {
		oldSet := map[int]bool{}
		for _, s := range old.Assign(kvstore.PartitionID(part)) {
			oldSet[s] = true
		}
		moved := false
		for _, s := range grown.Assign(kvstore.PartitionID(part)) {
			if !oldSet[s] {
				// Rendezvous property: a new member only ever inserts
				// itself; it never shuffles survivors between each other.
				if s != 3 {
					t.Fatalf("partition %d moved to pre-existing node %d", part, s)
				}
				moved = true
			}
		}
		if moved {
			changed++
		}
	}
	// The new node should win roughly R/N of the partitions, not all.
	if changed == 0 || changed > kvstore.MaxPartitions*3/4 {
		t.Fatalf("%d/%d partitions moved on AddNode", changed, kvstore.MaxPartitions)
	}

	// Placement is a pure function of membership.
	again := cluster.NewTable(1, 2, nodes, 3)
	for part := 0; part < kvstore.MaxPartitions; part++ {
		a, b := old.Assign(kvstore.PartitionID(part)), again.Assign(kvstore.PartitionID(part))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("assignment not deterministic at partition %d", part)
			}
		}
	}
}

func TestMembershipOpsChargeCallerTime(t *testing.T) {
	p := newPool(t, 3, 2, 17)
	now := 5 * time.Millisecond
	_, done, err := p.AddNode(now)
	if err != nil {
		t.Fatal(err)
	}
	if done <= now {
		t.Fatalf("AddNode done %v, want after %v (consensus is not free)", done, now)
	}
}

// TestMultiPutOwesABufferForEveryLiveKey pins the corner of the hand-over
// contract a pool can miss: the node that would keep the caller's buffer came
// back from a partition without a resync, so it holds no version of keys
// first written while it was dark and has nothing to hand back for them —
// yet they are live, and a live key's slot must not come back nil.
func TestMultiPutOwesABufferForEveryLiveKey(t *testing.T) {
	p := newPool(t, 3, 2, 21)
	if err := p.PartitionNode("node2"); err != nil {
		t.Fatal(err)
	}
	var keys []kvstore.Key
	batch := func(tag byte) [][]byte {
		var pages [][]byte
		for i := 0; i < 64; i++ {
			pages = append(pages, storetest.Page(tag+byte(i)))
		}
		return pages
	}
	for i := 0; i < 64; i++ {
		keys = append(keys, kvstore.MakeKey(uint64(0x100000+i*kvstore.PageSize), kvstore.PartitionID(i)))
	}
	done, err := p.MultiPut(0, keys, batch(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.ClusterStats().PartialPuts == 0 {
		t.Fatal("no write went partial; node2 was nobody's replica and the test is vacuous")
	}
	p.Network().Heal("node2") // the link only: no resync, node2 still lacks the keys
	pages := batch(100)
	if done, err = p.MultiPut(done, keys, pages); err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if len(pages[i]) != kvstore.PageSize {
			t.Fatalf("key %d was live but %d bytes came back", i, len(pages[i]))
		}
		storetest.Scribble(pages[i])
		if got, _, err := p.Get(done, key); err != nil || !bytes.Equal(got, storetest.Page(100+byte(i))) {
			t.Fatalf("key %d reads wrong once the buffer that came back is reused (%v)", i, err)
		}
	}
}

// withoutQuorum runs op with two of the three controllers partitioned, which
// leaves every controller cut off from the others, then heals them and runs
// the fabric until the ensemble has settled.
func withoutQuorum(p *cluster.Pool, op func()) {
	p.Network().Partition("ctrl1")
	p.Network().Partition("ctrl2")
	op()
	p.Network().Heal("ctrl1")
	p.Network().Heal("ctrl2")
	p.Network().RunFor(5 * time.Second)
}

// A membership change whose proposal timed out can still commit once the
// quorum returns: the isolated leader kept it in its log and wins again. At
// this seed the timed-out AddNode's table commits after the heal, and the
// pool must then serve the member its table lists — with a store behind it,
// so writes reach every replica, and drainable like any other member.
func TestTimedOutAddNodeThatCommitsLaterServes(t *testing.T) {
	p := newPool(t, 3, 2, 27)
	withoutQuorum(p, func() {
		if _, _, err := p.AddNode(0); !errors.Is(err, cluster.ErrProposalTimeout) {
			t.Fatalf("AddNode without a quorum: err = %v, want ErrProposalTimeout", err)
		}
	})
	if !p.Committed().Has("node3") {
		t.Fatal("the timed-out table did not commit after the heal: the recipe no longer reproduces")
	}
	now := time.Duration(0)
	for part := 0; part < kvstore.MaxPartitions; part++ {
		key := kvstore.MakeKey(0x1000000, kvstore.PartitionID(part))
		done, err := p.Put(now, key, storetest.Page(byte(part)))
		if errors.Is(err, cluster.ErrStaleEpoch) {
			done, err = p.Put(now, key, storetest.Page(byte(part)))
		}
		if err != nil {
			t.Fatalf("put to partition %d: %v", part, err)
		}
		now = done
	}
	if c := p.ClusterStats(); c.PartialPuts != 0 {
		t.Fatalf("%d of %d partition writes went partial under the committed table", c.PartialPuts, kvstore.MaxPartitions)
	}
	if _, err := p.Drain(now, "node3"); err != nil {
		t.Fatalf("drain of the late-committed member: %v", err)
	}
}

// The same shape for Recover: its timed-out shrunken table commits after the
// heal, so the crashed node has left the table before any resync ran. A
// later Recover must still restore every page to R copies.
func TestTimedOutRecoverThatCommitsLaterStillRestores(t *testing.T) {
	for _, seed := range []uint64{16, 27} {
		p := newPool(t, 4, 2, seed)
		keys, now := put(t, p, 64)
		if err := p.Crash(now, "node0"); err != nil {
			t.Fatal(err)
		}
		withoutQuorum(p, func() {
			if _, _, err := p.Recover(now); !errors.Is(err, cluster.ErrProposalTimeout) {
				t.Fatalf("seed %d: Recover without a quorum: err = %v, want ErrProposalTimeout", seed, err)
			}
		})
		if p.Committed().Has("node0") {
			t.Fatalf("seed %d: the timed-out table did not commit after the heal: the recipe no longer reproduces", seed)
		}
		done, copies, err := p.Recover(now)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if copies == 0 {
			t.Fatalf("seed %d: Recover restored no copy of node0's pages", seed)
		}
		if _, more := p.Resync(done); more != 0 {
			t.Fatalf("seed %d: %d copies still missing after Recover", seed, more)
		}
		verify(t, p, keys, done)
	}
}
