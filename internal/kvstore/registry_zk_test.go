package kvstore

import (
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/simnet"
	"fluidmem/internal/zookeeper"
)

func newZKRegistry(t *testing.T) *ZKRegistry {
	t.Helper()
	net := simnet.New(clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}, 77)
	zk, err := zookeeper.New(net, []string{"zk0", "zk1", "zk2"}, 77)
	if err != nil {
		t.Fatal(err)
	}
	return NewZKRegistry(zk)
}

func TestZKRegistryAllocateUnique(t *testing.T) {
	r := newZKRegistry(t)
	seen := make(map[PartitionID]bool)
	for i := 0; i < 8; i++ {
		p, err := r.Allocate("hyp-a", 100+i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("duplicate partition %d", p)
		}
		seen[p] = true
	}
}

func TestZKRegistryOwner(t *testing.T) {
	r := newZKRegistry(t)
	p, err := r.Allocate("hyp-b", 4242)
	if err != nil {
		t.Fatal(err)
	}
	hyp, pid, err := r.Owner(p)
	if err != nil {
		t.Fatal(err)
	}
	if hyp != "hyp-b" || pid != 4242 {
		t.Fatalf("owner = %s/%d", hyp, pid)
	}
}

func TestZKRegistryReleaseThenReuse(t *testing.T) {
	r := newZKRegistry(t)
	p, err := r.Allocate("hyp-c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Release(p); err != nil {
		t.Fatal(err)
	}
	// The same (hyp, pid) hashes to the same first candidate, so after
	// release the identical index is claimable again.
	p2, err := r.Allocate("hyp-c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("reallocated %d, want %d", p2, p)
	}
}

func TestZKRegistryCollisionResolvedByNonce(t *testing.T) {
	r := newZKRegistry(t)
	// Two hypervisors with colliding first candidates still both succeed,
	// because the nonce walks the probe sequence.
	a, err := r.Allocate("same", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Allocate("same", 7)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("collision not resolved: both %d", a)
	}
}
