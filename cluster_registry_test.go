package fluidmem

import (
	"errors"
	"testing"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/zookeeper"
)

// A BackendCluster machine claims its partition in its pool's ensemble, the
// paper's ZooKeeper table (§IV): the claim is a znode under
// /fluidmem/partitions from NewMachine until the VM is torn down.
func TestClusterMachineClaimsInPoolEnsemble(t *testing.T) {
	m, err := NewMachine(MachineConfig{Backend: BackendCluster, LocalMemory: 1 << 20, GuestMemory: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pid := m.VM().Config().PID
	part, ok := m.Monitor().Partition(pid)
	if !ok {
		t.Fatal("no partition registered for the guest")
	}
	registry := m.ClusterPool().Registry()
	hyp, owner, err := registry.Owner(part)
	if err != nil {
		t.Fatalf("partition %d is not claimed in the pool's ensemble: %v", part, err)
	}
	if hyp != "hypervisor-0" || owner != pid {
		t.Fatalf("partition %d is claimed by %s/%d, want hypervisor-0/%d", part, hyp, owner, pid)
	}
	if _, err := m.Monitor().UnregisterVM(m.Now(), pid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := registry.Owner(part); !errors.Is(err, zookeeper.ErrNoNode) {
		t.Fatalf("after teardown the claim lookup returned %v, want ErrNoNode", err)
	}
}

// A cluster-backed Host claims its tenants' partitions in the pool's
// ensemble, and they are the partitions a LocalRegistry hands out: both walk
// the same hash and nonce sequence, so the data path cannot tell them apart.
func TestClusterHostClaimsMatchLocalRegistry(t *testing.T) {
	partitions := func(registry kvstore.Registry) ([]kvstore.PartitionID, *Host) {
		vm := MachineConfig{Backend: BackendCluster, GuestMemory: 4 << 20}
		first := vm
		first.Registry = registry
		h, err := NewHost(HostConfig{
			Tenants:         []TenantSpec{{ID: "a", VM: first}, {ID: "b", VM: vm}, {ID: "c", VM: vm}},
			TotalLocalPages: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		var parts []kvstore.PartitionID
		for _, g := range h.Tenants() {
			part, ok := g.Machine().Monitor().Partition(g.Machine().VM().Config().PID)
			if !ok {
				t.Fatalf("tenant %s has no partition", g.ID())
			}
			parts = append(parts, part)
		}
		return parts, h
	}
	zk, h := partitions(nil)
	local, _ := partitions(kvstore.NewLocalRegistry())
	for i, g := range h.Tenants() {
		if zk[i] != local[i] {
			t.Errorf("tenant %s: partition %d from the ensemble, %d from a LocalRegistry", g.ID(), zk[i], local[i])
		}
		if _, _, err := g.Machine().ClusterPool().Registry().Owner(zk[i]); err != nil {
			t.Errorf("tenant %s: partition %d is not claimed in the pool's ensemble: %v", g.ID(), zk[i], err)
		}
	}
}
