package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/kvstore/cluster"
)

// ClusterRow is the fault-latency distribution observed during one phase of
// the cluster lifecycle (or one chaos row's window).
type ClusterRow struct {
	// Phase labels the lifecycle stage the faults were measured in.
	Phase string `json:"phase"`
	// Faults is the number of measured store-read faults.
	Faults int `json:"faults"`
	// Mean, P50, P99 summarise application-observed fault latency.
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
}

// ClusterResult compares guest-observed fault latency on the sharded
// multi-node pool — healthy, with a node crashed, after recovery, and after
// a graceful drain — against the single-store baseline, plus the cost of
// re-replication itself. The paper's cloud deployment assumes the remote
// memory tier survives node failure; this experiment prices that assumption:
// a crash costs at most a failover's worth of latency on reads (never an
// error), and recovery is a bounded background copy.
type ClusterResult struct {
	// Nodes and Replicas configure the pool.
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	// Rows is one latency distribution per phase, in lifecycle order.
	Rows []ClusterRow `json:"rows"`
	// RecoveryTime is the virtual time Recover took: committing the
	// shrunken table plus re-replicating every under-replicated page.
	RecoveryTime time.Duration `json:"recovery_time_ns"`
	// RecoveredCopies is the page copies restored by that recovery.
	RecoveredCopies int `json:"recovered_copies"`
	// DrainTime is the virtual time the graceful drain took (copy +
	// cutover commit).
	DrainTime time.Duration `json:"drain_time_ns"`
	// Counters is the pool's final intervention snapshot.
	Counters cluster.Counters `json:"counters"`
}

// RunCluster measures the lifecycle latency matrix.
func RunCluster(opts Options) (*ClusterResult, error) {
	faults := 3000
	if opts.Quick {
		faults = 800
	}
	res := &ClusterResult{Nodes: 3, Replicas: 2}

	// Baseline: the same workload against the plain single-node RAMCloud
	// backend (no replication, nothing to survive).
	base, err := newMonitorMachine(fluidmem.MachineConfig{
		Backend: fluidmem.BackendRAMCloud, LocalMemory: windowLocalBytes, GuestMemory: windowGuestBytes, Seed: opts.Seed,
	}, withResilience)
	if err != nil {
		return nil, err
	}
	seg, pages, err := populate(base, windowWSSBytes)
	if err != nil {
		return nil, err
	}
	row, err := measurePhase("single-store", base, seg, pages, faults, opts.Seed+50)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)

	// The pool under test: one machine, phases injected between
	// measurement windows so each row sees a steady state of its stage.
	m, err := newMonitorMachine(fluidmem.MachineConfig{
		Backend:       fluidmem.BackendCluster,
		StoreNodes:    res.Nodes,
		StoreReplicas: res.Replicas,
		LocalMemory:   windowLocalBytes,
		GuestMemory:   windowGuestBytes,
		Seed:          opts.Seed,
	}, withResilience)
	if err != nil {
		return nil, err
	}
	pool := m.ClusterPool()
	if seg, pages, err = populate(m, windowWSSBytes); err != nil {
		return nil, err
	}

	for i, phase := range []string{"cluster-healthy", "cluster-crashed", "cluster-recovered", "cluster-drained"} {
		switch phase {
		case "cluster-crashed":
			if err := pool.Crash(m.Now(), pool.NodeNames()[0]); err != nil {
				return nil, fmt.Errorf("bench cluster: crash: %w", err)
			}
		case "cluster-recovered":
			start := m.Now()
			done, copied, err := pool.Recover(start)
			if err != nil {
				return nil, fmt.Errorf("bench cluster: recover: %w", err)
			}
			res.RecoveryTime = done - start
			res.RecoveredCopies = copied
		case "cluster-drained":
			// Grow first so the drain keeps the pool at the replication
			// floor, then retire a survivor gracefully.
			if _, _, err := pool.AddNode(m.Now()); err != nil {
				return nil, fmt.Errorf("bench cluster: add: %w", err)
			}
			start := m.Now()
			done, err := pool.Drain(start, pool.NodeNames()[0])
			if err != nil {
				return nil, fmt.Errorf("bench cluster: drain: %w", err)
			}
			res.DrainTime = done - start
		}
		row, err := measurePhase(phase, m, seg, pages, faults, opts.Seed+60+uint64(i))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	res.Counters = pool.ClusterStats()
	return res, nil
}

// Render prints the lifecycle matrix.
func (r *ClusterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster pool lifecycle: guest fault latency, %d nodes × %d replicas vs single store\n",
		r.Nodes, r.Replicas)
	fmt.Fprintf(&b, "%-18s %8s %10s %10s %10s\n", "phase", "faults", "mean µs", "p50 µs", "p99 µs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %8d %10s %10s %10s\n",
			row.Phase, row.Faults, microseconds(row.Mean), microseconds(row.P50), microseconds(row.P99))
	}
	fmt.Fprintf(&b, "recovery: %v for %d copies; drain: %v\n",
		r.RecoveryTime.Round(time.Microsecond), r.RecoveredCopies, r.DrainTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "pool: failovers=%d read-repairs=%d re-replicated=%d stale-rejects=%d partial-puts=%d\n",
		r.Counters.Failovers, r.Counters.ReadRepairs, r.Counters.Rereplicated,
		r.Counters.StaleRejects, r.Counters.PartialPuts)
	return b.String()
}
