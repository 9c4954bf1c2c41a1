package zookeeper

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/raft"
	"fluidmem/internal/simnet"
)

func newTestCluster(t *testing.T, n int, seed uint64) *Cluster {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("zk%d", i)
	}
	net := simnet.New(clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}, seed)
	c, err := New(net, names, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateGet(t *testing.T) {
	c := newTestCluster(t, 3, 1)
	if err := c.Create("/fluidmem/partitions/p1", []byte("vm-a")); err != nil {
		t.Fatal(err)
	}
	data, version, err := c.Get("/fluidmem/partitions/p1")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "vm-a" || version != 1 {
		t.Fatalf("got %q v%d", data, version)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	if err := c.Create("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/x", []byte("2")); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v, want ErrNodeExists", err)
	}
	// Original data intact.
	data, _, err := c.Get("/x")
	if err != nil || string(data) != "1" {
		t.Fatalf("data = %q, err = %v", data, err)
	}
}

func TestGetMissing(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if _, _, err := c.Get("/nope"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
}

func TestSetVersionedCAS(t *testing.T) {
	c := newTestCluster(t, 3, 4)
	if err := c.Create("/cas", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v2, err := c.Set("/cas", []byte("v2"), 1)
	if err != nil || v2 != 2 {
		t.Fatalf("Set = v%d, %v", v2, err)
	}
	// Stale version must fail.
	if _, err := c.Set("/cas", []byte("v3"), 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	// Unconditional set (version 0) succeeds.
	v3, err := c.Set("/cas", []byte("v3"), 0)
	if err != nil || v3 != 3 {
		t.Fatalf("Set = v%d, %v", v3, err)
	}
}

func TestSetMissing(t *testing.T) {
	c := newTestCluster(t, 1, 5)
	if _, err := c.Set("/missing", nil, 0); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(t, 3, 6)
	if err := c.Create("/d", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/d", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("/d"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err after delete = %v", err)
	}
	if err := c.Delete("/d", 0); !errors.Is(err, ErrNoNode) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeleteBadVersion(t *testing.T) {
	c := newTestCluster(t, 1, 7)
	if err := c.Create("/d", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/d", 42); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestSingleReplicaCluster(t *testing.T) {
	c := newTestCluster(t, 1, 11)
	if err := c.Create("/solo", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Get("/solo")
	if err != nil || string(data) != "ok" {
		t.Fatalf("%q, %v", data, err)
	}
}

func TestClusterSizeValidation(t *testing.T) {
	if _, err := New(simnet.New(clock.LatencyModel{}, 1), nil, 1); err == nil {
		t.Fatal("want error for size 0")
	}
}

func TestReplicasConverge(t *testing.T) {
	c := newTestCluster(t, 3, 12)
	for i := 0; i < 5; i++ {
		if err := c.Create(fmt.Sprintf("/n%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let replication settle, then compare all state machines directly.
	c.Network().RunFor(3 * time.Second)
	ref := c.tables[0].nodes
	if len(ref) != 5 {
		t.Fatalf("table 0 has %d nodes", len(ref))
	}
	for i, tbl := range c.tables[1:] {
		if len(tbl.nodes) != len(ref) {
			t.Fatalf("replica %d has %d nodes, want %d", i+1, len(tbl.nodes), len(ref))
		}
		for path, n := range ref {
			other, ok := tbl.nodes[path]
			if !ok || string(other.data) != string(n.data) || other.version != n.version {
				t.Fatalf("replica %d diverges at %q", i+1, path)
			}
		}
	}
}

func TestSurvivesFollowerPartition(t *testing.T) {
	c := newTestCluster(t, 3, 13)
	// Partition one follower; the remaining quorum keeps serving.
	for i, n := range c.nodes {
		if n.Role() == raft.Follower {
			c.Network().Partition(fmt.Sprintf("zk%d", i))
			break
		}
	}
	if err := c.Create("/during-partition", []byte("x")); err != nil {
		t.Fatalf("write during follower partition failed: %v", err)
	}
	data, _, err := c.Get("/during-partition")
	if err != nil || string(data) != "x" {
		t.Fatalf("read back %q, %v", data, err)
	}
}

// TestWatchFiresOncePerCommittedChange pins the watch contract: one call per
// committed create, set or delete of the watched path, in log order, never
// one per replica, and none for reads, failed writes or other paths.
func TestWatchFiresOncePerCommittedChange(t *testing.T) {
	c := newTestCluster(t, 3, 14)
	type fired struct {
		data    string
		version uint64
	}
	var got []fired
	c.Watch("/w", func(data []byte, version uint64) { got = append(got, fired{string(data), version}) })
	if err := c.Create("/w", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("/w", []byte("b"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("/w", []byte("stale"), 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale set: err = %v", err)
	}
	if _, _, err := c.Get("/w"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/w", 0); err != nil {
		t.Fatal(err)
	}
	c.Network().RunFor(time.Second) // every replica has applied everything
	want := []fired{{"a", 1}, {"b", 2}, {"", 0}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("watch fired %v, want %v", got, want)
	}
}

// TestTimedOutSetCommitsLater pins what a caller of a timed-out operation
// must allow for: the proposal stays in the isolated leader's log, and at
// this seed that leader wins again once the quorum returns, so the proposal
// commits — the watch, not the caller, is the one that learns of it.
func TestTimedOutSetCommitsLater(t *testing.T) {
	c := newTestCluster(t, 3, 8)
	if err := c.Create("/w", []byte("a")); err != nil {
		t.Fatal(err)
	}
	var got []string
	c.Watch("/w", func(data []byte, version uint64) { got = append(got, fmt.Sprintf("%s@%d", data, version)) })
	var followers []string
	for i, n := range c.nodes {
		if n.Role() == raft.Follower {
			followers = append(followers, fmt.Sprintf("zk%d", i))
		}
	}
	for _, f := range followers {
		c.Network().Partition(f)
	}
	if _, err := c.Set("/w", []byte("late"), 1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("set without a quorum: err = %v, want ErrTimeout", err)
	}
	if len(got) != 0 {
		t.Fatalf("watch fired %v before a quorum returned", got)
	}
	for _, f := range followers {
		c.Network().Heal(f)
	}
	c.Network().RunFor(5 * time.Second)
	if fmt.Sprint(got) != "[late@2]" {
		t.Fatalf("watch fired %v after the heal, want [late@2]", got)
	}
	if data, version, err := c.Get("/w"); err != nil || string(data) != "late" || version != 2 {
		t.Fatalf("Get = %q v%d, %v", data, version, err)
	}
}
