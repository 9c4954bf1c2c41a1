package core

import (
	"bytes"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/storetest"
)

// TestSharedFramesUnderClusterChurn is the whole-path net for clean pages
// that map the store's read buffer: a cluster-backed monitor with clean-page
// drop and zero elision on, its store behind storetest's aliasing net (which
// scribbles over every buffer a MultiPut hands back and digests every read),
// runs a read-mostly stream over four times its capacity while the node
// serving its partition crashes a third of the way in and the pool recovers
// at two thirds. Every access is checked against a flat page map, so a
// shared buffer that the store reused, or that reached the pool, or that a
// guest write went into, shows as a wrong page.
func TestSharedFramesUnderClusterChurn(t *testing.T) {
	const pages, ops = 256, 30000
	pool, err := cluster.New(cluster.Config{Nodes: 3, Replicas: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	net := storetest.Poison(t, pool)
	cfg := DefaultConfig(net, pages/4)
	cfg.CleanPageDrop = true
	cfg.ElideZeroPages = true
	policy := resilience.DefaultPolicy()
	cfg.Resilience = &policy
	m, err := NewMonitor(cfg, nil, "hyp-shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, pages*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	part, _ := m.Partition(4242)
	victim := ""
	for _, n := range pool.Committed().Nodes {
		if n.Slot == pool.Committed().Assign(part)[0] {
			victim = n.Name
		}
	}

	model := make([][]byte, pages)
	for i := range model {
		model[i] = make([]byte, PageSize)
	}
	rng := clock.NewRand(5)
	var now time.Duration
	for i := 0; i < ops; i++ {
		switch i {
		case ops / 3:
			if err := pool.Crash(now, victim); err != nil {
				t.Fatal(err)
			}
		case 2 * ops / 3:
			if now, _, err = pool.Recover(now); err != nil {
				t.Fatal(err)
			}
		}
		page := rng.Intn(pages)
		write := rng.Intn(10) == 0
		data, done, err := m.Touch(now, addr(page), write)
		if err != nil {
			t.Fatalf("op %d page %d: %v", i, page, err)
		}
		now = done
		if !bytes.Equal(data, model[page]) {
			t.Fatalf("op %d: page %d does not read what was last written to it", i, page)
		}
		if write {
			// One write in four restores the page to all zeroes, for the
			// zero-elision path; the rest stamp a word.
			off := 8 * rng.Intn(PageSize/8)
			v := byte(i%251 + 1)
			if rng.Intn(4) == 0 {
				clear(data)
			} else {
				data[off] = v
			}
			copy(model[page], data)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	net.Verify(now)
	st := m.Stats()
	if st.CleanDropped == 0 || st.ZeroElided == 0 || m.WPFaults() == 0 || pool.ClusterStats().Failovers == 0 {
		t.Fatalf("the run missed a path: %d clean drops, %d zero elisions, %d WP faults, %d failovers",
			st.CleanDropped, st.ZeroElided, m.WPFaults(), pool.ClusterStats().Failovers)
	}
}
