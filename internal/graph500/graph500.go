// Package graph500 implements the Graph500 benchmark's sequential reference
// flow (§VI-D1): Kronecker (R-MAT) edge generation, CSR graph construction
// inside guest memory, repeated breadth-first searches from random roots,
// parent-tree validation, and TEPS reporting as the harmonic mean across
// roots — the exact metric Figure 4 plots.
//
// The graph's large arrays (adjacency, offsets, parents) live in simulated
// VM memory, so every irregular BFS access exercises the paging path under
// test. The search queue is host-side bookkeeping, mirroring the reference
// implementation's small, cache-resident frontier state.
package graph500

import (
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/stats"
	"fluidmem/internal/vm"
)

// Kronecker initiator probabilities from the Graph500 specification.
const (
	initiatorA = 0.57
	initiatorB = 0.19
	initiatorC = 0.19
	// initiatorD = 0.05 (implied)
)

// Config parametrises a run.
type Config struct {
	// Scale is log2 of the vertex count (Graph500 scale factor).
	Scale int
	// EdgeFactor is edges per vertex (Graph500 default 16).
	EdgeFactor int
	// Roots is the number of BFS traversals (the paper runs 64).
	Roots int
	// CPUPerEdge is the compute cost charged per traversed edge, modelling
	// the processor work between memory stalls.
	CPUPerEdge time.Duration
	// Seed drives generation and root selection.
	Seed uint64
	// Validate runs the parent-tree validation after each BFS.
	Validate bool
}

// DefaultConfig mirrors the benchmark defaults at the given scale.
func DefaultConfig(scale int) Config {
	return Config{
		Scale:      scale,
		EdgeFactor: 16,
		Roots:      64,
		CPUPerEdge: 18 * time.Nanosecond,
		Seed:       1,
		Validate:   false,
	}
}

// Result summarises a run.
type Result struct {
	// Vertices and Edges describe the generated graph.
	Vertices int
	Edges    int
	// TEPS holds traversed-edges-per-second for each BFS root.
	TEPS []float64
	// HarmonicMeanTEPS is the Graph500 reporting metric.
	HarmonicMeanTEPS float64
	// ConstructionTime is the (untimed-by-the-metric) graph build cost.
	ConstructionTime time.Duration
	// TraversalTime is total virtual time across all BFS runs.
	TraversalTime time.Duration
	// MemoryBytes is the guest memory held by the graph structures.
	MemoryBytes uint64
}

// MemoryBytes reports the guest footprint of a graph at scale/edgefactor:
// CSR offsets (V+1 words), adjacency (2E words, both directions), and the
// parent array (V words), each rounded to page granularity as allocated.
// The harness uses it to size working sets.
func MemoryBytes(scale, edgeFactor int) uint64 {
	v := uint64(1) << uint(scale)
	e := v * uint64(edgeFactor)
	pageRound := func(b uint64) uint64 {
		return (b + vm.PageSize - 1) &^ uint64(vm.PageSize-1)
	}
	return pageRound((v+1)*8) + pageRound(2*e*8) + pageRound(v*8)
}

// Run generates the graph, builds it in guest memory, and performs the BFS
// sweeps. It returns the result and the completion time.
func Run(now time.Duration, guest *vm.VM, cfg Config) (*Result, time.Duration, error) {
	if cfg.Scale < 4 || cfg.Scale > 34 {
		return nil, now, fmt.Errorf("graph500: scale %d out of range", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return nil, now, fmt.Errorf("graph500: edge factor %d", cfg.EdgeFactor)
	}
	if cfg.Roots < 1 {
		return nil, now, fmt.Errorf("graph500: roots %d", cfg.Roots)
	}
	rng := clock.NewRand(cfg.Seed)
	nVertices := 1 << uint(cfg.Scale)
	nEdges := nVertices * cfg.EdgeFactor

	// Phase 1: Kronecker edge generation (host-side scratch, per spec the
	// generator is not part of the timed kernel).
	src, dst := generateEdges(rng, cfg.Scale, nEdges)

	// Phase 2: CSR construction in guest memory.
	buildStart := now
	g, now, err := buildCSR(now, guest, nVertices, src, dst)
	if err != nil {
		return nil, now, err
	}
	res := &Result{
		Vertices:         nVertices,
		Edges:            nEdges,
		ConstructionTime: now - buildStart,
		MemoryBytes:      g.memoryBytes(),
	}

	// Phase 3: BFS sweeps from distinct random roots with degree > 0.
	travStart := now
	for len(res.TEPS) < cfg.Roots {
		root := rng.Intn(nVertices)
		deg, t, err := g.degree(now, root)
		if err != nil {
			return nil, t, err
		}
		now = t
		if deg == 0 {
			continue
		}
		traversed, done, err := g.bfs(now, root, cfg.CPUPerEdge)
		if err != nil {
			return nil, done, err
		}
		elapsed := done - now
		now = done
		if elapsed <= 0 {
			return nil, now, fmt.Errorf("graph500: BFS from %d took no time", root)
		}
		res.TEPS = append(res.TEPS, float64(traversed)/elapsed.Seconds())
		if cfg.Validate {
			if now, err = g.validate(now, root); err != nil {
				return nil, now, fmt.Errorf("graph500: root %d: %w", root, err)
			}
		}
	}
	res.TraversalTime = now - travStart
	hm, err := stats.HarmonicMean(res.TEPS)
	if err != nil {
		return nil, now, err
	}
	res.HarmonicMeanTEPS = hm
	return res, now, nil
}

// generateEdges produces an R-MAT edge list with the Graph500 initiator.
func generateEdges(rng *clock.Rand, scale, nEdges int) (src, dst []uint32) {
	src = make([]uint32, nEdges)
	dst = make([]uint32, nEdges)
	for i := 0; i < nEdges; i++ {
		var u, v uint32
		for level := 0; level < scale; level++ {
			// One draw picks quadrant A, B, C or D by three threshold
			// compares rather than a switch the CPU mispredicts: u's bit
			// is set in C and D, v's in B and D.
			r := rng.Float64()
			pastA, pastB, pastC := bit(r >= initiatorA), bit(r >= initiatorA+initiatorB), bit(r >= initiatorA+initiatorB+initiatorC)
			u = u<<1 | pastB
			v = v<<1 | pastA ^ pastB ^ pastC
		}
		src[i], dst[i] = u, v
	}
	return src, dst
}

// bit is 1 for true and 0 for false, compiled to a flag move, not a branch.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// csrGraph is the in-guest graph: xadj offsets, adjacency, and parents.
type csrGraph struct {
	guest     *vm.VM
	n         int
	adjLen    int
	xadj      *vm.Segment // n+1 words
	adjacency *vm.Segment // adjLen words
	parents   *vm.Segment // n words
}

// buildCSR counts degrees, prefix-sums offsets, and fills adjacency — all in
// guest memory (construction cost is charged to the clock but excluded from
// TEPS, matching the benchmark).
func buildCSR(now time.Duration, guest *vm.VM, n int, src, dst []uint32) (*csrGraph, time.Duration, error) {
	adjLen := 2 * len(src) // both directions
	g := &csrGraph{guest: guest, n: n, adjLen: adjLen}
	var err error
	if g.xadj, err = guest.Alloc("graph500.xadj", uint64(n+1)*8, vm.ClassAnon); err != nil {
		return nil, now, fmt.Errorf("graph500: %w", err)
	}
	if g.adjacency, err = guest.Alloc("graph500.adj", uint64(adjLen)*8, vm.ClassAnon); err != nil {
		return nil, now, fmt.Errorf("graph500: %w", err)
	}
	if g.parents, err = guest.Alloc("graph500.parents", uint64(n)*8, vm.ClassAnon); err != nil {
		return nil, now, fmt.Errorf("graph500: %w", err)
	}

	// Degree counting (host scratch) then offsets into guest memory.
	degree := make([]int, n)
	for i := range src {
		degree[src[i]]++
		degree[dst[i]]++
	}
	offset := make([]int, n+1)
	for i := 0; i < n; i++ {
		offset[i+1] = offset[i] + degree[i]
	}
	for i := 0; i <= n; i++ {
		if now, err = guest.Write64(now, g.xadj.Addr(uint64(i)*8), uint64(offset[i])); err != nil {
			return nil, now, err
		}
	}
	// Fill adjacency.
	cursor := make([]int, n)
	copy(cursor, offset[:n])
	place := func(from, to uint32) error {
		slot := cursor[from]
		cursor[from]++
		now, err = guest.Write64(now, g.adjacency.Addr(uint64(slot)*8), uint64(to))
		return err
	}
	for i := range src {
		if err := place(src[i], dst[i]); err != nil {
			return nil, now, err
		}
		if err := place(dst[i], src[i]); err != nil {
			return nil, now, err
		}
	}
	return g, now, nil
}

func (g *csrGraph) memoryBytes() uint64 {
	return g.xadj.Bytes + g.adjacency.Bytes + g.parents.Bytes
}

// degree reads a vertex's degree from the offsets array.
func (g *csrGraph) degree(now time.Duration, v int) (int, time.Duration, error) {
	lo, now, err := g.guest.Read64(now, g.xadj.Addr(uint64(v)*8))
	if err != nil {
		return 0, now, err
	}
	hi, now, err := g.guest.Read64(now, g.xadj.Addr(uint64(v+1)*8))
	if err != nil {
		return 0, now, err
	}
	return int(hi - lo), now, nil
}

// noParent marks unvisited vertices in the parents array.
const noParent = ^uint64(0)

// bfs runs one traversal, writing the parent tree into guest memory and
// returning the number of edges traversed.
func (g *csrGraph) bfs(now time.Duration, root int, cpuPerEdge time.Duration) (int, time.Duration, error) {
	var err error
	// Reset parents (counts as part of the timed kernel, as in the spec).
	for i := 0; i < g.n; i++ {
		if now, err = g.guest.Write64(now, g.parents.Addr(uint64(i)*8), noParent); err != nil {
			return 0, now, err
		}
	}
	if now, err = g.guest.Write64(now, g.parents.Addr(uint64(root)*8), uint64(root)); err != nil {
		return 0, now, err
	}
	queue := make([]int, 0, 1024)
	queue = append(queue, root)
	traversed := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		lo, t1, err := g.guest.Read64(now, g.xadj.Addr(uint64(u)*8))
		if err != nil {
			return traversed, t1, err
		}
		hi, t2, err := g.guest.Read64(t1, g.xadj.Addr(uint64(u+1)*8))
		if err != nil {
			return traversed, t2, err
		}
		now = t2
		for e := lo; e < hi; e++ {
			now += cpuPerEdge
			nbr, t, err := g.guest.Read64(now, g.adjacency.Addr(e*8))
			if err != nil {
				return traversed, t, err
			}
			now = t
			traversed++
			p, t, err := g.guest.Read64(now, g.parents.Addr(nbr*8))
			if err != nil {
				return traversed, t, err
			}
			now = t
			if p == noParent {
				if now, err = g.guest.Write64(now, g.parents.Addr(nbr*8), uint64(u)); err != nil {
					return traversed, now, err
				}
				queue = append(queue, int(nbr))
			}
		}
	}
	return traversed, now, nil
}

// validate checks the parent tree: the root is its own parent, and every
// visited vertex's parent is visited. (The full spec validation also checks
// edge existence; this level catches paging-induced corruption, which is
// what the simulation is for.)
func (g *csrGraph) validate(now time.Duration, root int) (time.Duration, error) {
	rootParent, now, err := g.guest.Read64(now, g.parents.Addr(uint64(root)*8))
	if err != nil {
		return now, err
	}
	if rootParent != uint64(root) {
		return now, fmt.Errorf("root %d has parent %d", root, rootParent)
	}
	for v := 0; v < g.n; v++ {
		p, t, err := g.guest.Read64(now, g.parents.Addr(uint64(v)*8))
		if err != nil {
			return t, err
		}
		now = t
		if p == noParent {
			continue
		}
		if p >= uint64(g.n) {
			return now, fmt.Errorf("vertex %d has out-of-range parent %d", v, p)
		}
		pp, t, err := g.guest.Read64(now, g.parents.Addr(p*8))
		if err != nil {
			return t, err
		}
		now = t
		if pp == noParent {
			return now, fmt.Errorf("vertex %d's parent %d is unvisited", v, p)
		}
	}
	return now, nil
}
