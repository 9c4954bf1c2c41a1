package hotset

import (
	"encoding/binary"
	"testing"
)

// flatModel is the obviously-correct reference: a plain slice ordered by
// eviction recency (index 0 = most recent) plus plain counters. O(n) per op,
// no container/list, no index map — nothing shared with the Tracker
// implementation beyond the spec.
type flatModel struct {
	params    Params
	order     []uint64
	faults    uint64
	ghostHits uint64
	evictions uint64
	hits      []uint64
}

func newFlatModel(p Params) *flatModel {
	buckets := (p.GhostCapacity + p.BucketPages - 1) / p.BucketPages
	return &flatModel{params: p, hits: make([]uint64, buckets)}
}

func (m *flatModel) find(addr uint64) int {
	for i, a := range m.order {
		if a == addr {
			return i
		}
	}
	return -1
}

func (m *flatModel) fault(addr uint64) {
	m.faults++
	i := m.find(addr)
	if i < 0 {
		return
	}
	m.ghostHits++
	bucket := i / m.params.BucketPages // i is 0-based depth-1
	if bucket >= len(m.hits) {
		bucket = len(m.hits) - 1
	}
	m.hits[bucket]++
	m.order = append(m.order[:i], m.order[i+1:]...)
}

func (m *flatModel) evict(addr uint64) {
	m.evictions++
	if i := m.find(addr); i >= 0 {
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
	m.order = append([]uint64{addr}, m.order...)
	if len(m.order) > m.params.GhostCapacity {
		m.order = m.order[:m.params.GhostCapacity]
	}
}

func (m *flatModel) remove(addr uint64) {
	if i := m.find(addr); i >= 0 {
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

func equalStates(t *testing.T, tr *Tracker, m *flatModel) {
	t.Helper()
	s := tr.Snapshot()
	if s.Faults != m.faults || s.GhostHits != m.ghostHits || s.Evictions != m.evictions {
		t.Fatalf("counters diverged: tracker %+v, model faults=%d hits=%d evictions=%d",
			s, m.faults, m.ghostHits, m.evictions)
	}
	if s.GhostLen != len(m.order) {
		t.Fatalf("ghost length diverged: tracker %d, model %d", s.GhostLen, len(m.order))
	}
	for i, h := range s.Curve.Hits {
		if h != m.hits[i] {
			t.Fatalf("histogram bucket %d diverged: tracker %v, model %v", i, s.Curve.Hits, m.hits)
		}
	}
	for _, a := range m.order {
		if !tr.Contains(a) {
			t.Fatalf("tracker lost shadowed page %#x", a)
		}
	}
}

// FuzzGhostLRU drives the Tracker, the parent's container/list Tracker and
// the flat reference model with the same fault/evict/remove stream decoded
// from fuzz bytes and requires identical observable state after every
// operation: the ghostPair's digest, snapshot, length and membership, and the
// model's counters and contents. Each 3-byte group is one op: opcode byte
// (mod 3) + 2 address bytes (small space to force collisions, ghost hits,
// re-evictions of shadowed pages, and capacity churn).
func FuzzGhostLRU(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 2, 0, 0, 1, 0, 0, 2, 2, 0, 1})
	f.Add([]byte{1, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// Derive small sizes from the stream head so capacity-boundary and
		// bucket-clamp behaviour get fuzzed too.
		p := Params{
			GhostCapacity: 1 + int(data[0]%64),
			BucketPages:   1 + int(data[1]%8),
		}
		data = data[2:]
		const pages = 80
		pair := newGhostPair(t, p, pages)
		model := newFlatModel(p)
		for step := 0; len(data) >= 3; step++ {
			op := int(data[0] % 3)
			addr := uint64(binary.LittleEndian.Uint16(data[1:3])%pages) << 12
			data = data[3:]
			pair.op(op, addr)
			switch op {
			case 0:
				model.fault(addr)
			case 1:
				model.evict(addr)
			case 2:
				model.remove(addr)
			}
			pair.check(t, step)
			equalStates(t, pair.tr, model)
		}
	})
}
