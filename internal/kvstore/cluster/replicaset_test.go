package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/faulty"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/replicated"
	"fluidmem/internal/kvstore/storetest"
	"fluidmem/internal/zookeeper"
)

// TestReplicaSetMatchesParent holds the replica-set core to the two
// implementations it replaced. Each run drives a test-side copy of the
// parent's code and its replacement with one seeded op stream — Put,
// MultiPut (empty batches and repeated keys included), Get, StartGet,
// MultiGet and Delete — interleaved with Fail/Recover/RotatePrimary for
// replicated.Store and with AddNode/Drain/Crash/Recover/Partition/Heal/Resync
// (and a link healed without a resync) for the pool, whose controllers are
// also partitioned and healed: two cut off leave no quorum, so membership
// changes time out and may commit later. After every call the
// two must agree on the returned times, data, error class, hand-back buffers,
// Stats and counters. The parent copies carry each intended difference as an
// edit marked "MODEL:"; nothing else may differ.
func TestReplicaSetMatchesParent(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("replicated/seed%d", seed), func(t *testing.T) {
			runReplicatedModel(t, seed, 2+int(seed%3), 1200)
		})
		t.Run(fmt.Sprintf("pool/seed%d", seed), func(t *testing.T) {
			runPoolModel(t, seed, 3+int(seed%3), 2+int(seed%2), 1200)
		})
	}
}

// FuzzReplicaSet is TestReplicaSetMatchesParent over arbitrary seeds,
// shapes and lengths.
func FuzzReplicaSet(f *testing.F) {
	f.Add(uint64(1), uint8(0x12), uint16(300))
	f.Add(uint64(7), uint8(0x35), uint16(500))
	f.Add(uint64(99), uint8(0xff), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, steps uint16) {
		n := int(steps % 600)
		runReplicatedModel(t, seed, 1+int(shape%4), n)
		runPoolModel(t, seed, 1+int(shape>>2%5), 1+int(shape>>5%3), n)
	})
}

// modelKey spreads the op stream across partitions and page addresses.
func modelKey(i int) kvstore.Key {
	return kvstore.MakeKey(0x4000_0000+uint64(i)*kvstore.PageSize, kvstore.PartitionID(i*131%kvstore.MaxPartitions))
}

// twin applies every call to a parent copy and to its replacement and fails
// at the first observable difference.
type twin struct {
	tb     testing.TB
	label  string
	step   int
	op     string
	now    time.Duration
	parent kvstore.Store
	core   kvstore.Store
	// exact compares error text too; otherwise only the class.
	exact bool
	// state reports what beyond Stats each side exposes.
	state func() (parent, core any)
}

func (w *twin) failf(format string, args ...any) {
	w.tb.Helper()
	w.tb.Fatalf("%s step %d (%s): %s", w.label, w.step, w.op, fmt.Sprintf(format, args...))
}

// errClass names the sentinel an error wraps, else its text.
func errClass(err error) string {
	for _, s := range []error{kvstore.ErrNotFound, kvstore.ErrBadValue, ErrUnavailable, ErrStaleEpoch,
		ErrNodeUnknown, ErrNodeCrashed, ErrNodePartitioned, ErrTooFewNodes, ErrDrainStranded, ErrSlotSpace,
		ErrProposalTimeout, zookeeper.ErrBadVersion, replicated.ErrAllReplicasDown, replicated.ErrUnavailable, faulty.ErrInjected, faulty.ErrCrashed} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func (w *twin) sameErr(a, b error) {
	w.tb.Helper()
	if (a == nil) != (b == nil) || errClass(a) != errClass(b) || (w.exact && a != nil && a.Error() != b.Error()) {
		w.failf("errors differ: parent %v, core %v", a, b)
	}
}

func (w *twin) sameTime(a, b time.Duration) {
	w.tb.Helper()
	if a != b {
		w.failf("times differ: parent %v, core %v", a, b)
	}
	w.now = max(w.now, b)
}

func (w *twin) sameData(what string, a, b []byte) {
	w.tb.Helper()
	if (a == nil) != (b == nil) || !bytes.Equal(a, b) {
		w.failf("%s differs: parent %d bytes, core %d bytes", what, len(a), len(b))
	}
}

// sameState compares Stats and whatever else each side exposes.
func (w *twin) sameState() {
	w.tb.Helper()
	if a, b := w.parent.Stats(), w.core.Stats(); a != b {
		w.failf("stats differ:\n  parent %+v\n  core   %+v", a, b)
	}
	if a, b := w.state(); !reflect.DeepEqual(a, b) {
		w.failf("state differs:\n  parent %+v\n  core   %+v", a, b)
	}
}

// handBack describes what a MultiPut left in the caller's slots: nil, one of
// the buffers passed (by index), or another buffer (by content).
func handBack(pages, passed [][]byte) []string {
	out := make([]string, len(pages))
	for i, p := range pages {
		switch {
		case p == nil:
			out[i] = "nil"
		case len(p) != kvstore.PageSize:
			out[i] = fmt.Sprintf("short:%d", len(p))
		default:
			out[i] = "other"
			for j, q := range passed {
				if &p[0] == &q[0] {
					out[i] = fmt.Sprintf("passed:%d", j)
				}
			}
			if out[i] == "other" {
				h := fnv.New64a()
				h.Write(p)
				out[i] = fmt.Sprintf("other:%x", h.Sum64())
			}
		}
	}
	return out
}

// dataOp runs one seeded data operation on both sides.
func (w *twin) dataOp(rng *clock.Rand, keySpace int) {
	w.tb.Helper()
	key := modelKey(rng.Intn(keySpace))
	tag := byte(w.step%251 + 1)
	batch := func() []kvstore.Key {
		n := rng.Intn(6)
		keys := make([]kvstore.Key, n)
		for i := range keys {
			keys[i] = modelKey(rng.Intn(keySpace))
		}
		return keys
	}
	switch r := rng.Float64(); {
	case r < 0.22:
		w.op = "get"
		a, ad, ae := w.parent.Get(w.now, key)
		b, bd, be := w.core.Get(w.now, key)
		w.sameErr(ae, be)
		w.sameData("data", a, b)
		w.sameTime(ad, bd)
	case r < 0.34:
		w.op = "startget"
		a := w.parent.StartGet(w.now, key)
		b := w.core.StartGet(w.now, key)
		w.sameErr(a.Err, b.Err)
		w.sameData("data", a.Data, b.Data)
		if a.Key != b.Key {
			w.failf("pending keys differ")
		}
		w.sameTime(a.ReadyAt, b.ReadyAt)
	case r < 0.58:
		w.op = "put"
		ad, ae := w.parent.Put(w.now, key, storetest.Page(tag))
		bd, be := w.core.Put(w.now, key, storetest.Page(tag))
		w.sameErr(ae, be)
		w.sameTime(ad, bd)
	case r < 0.74:
		w.op = "multiput"
		keys := batch()
		pa, pb := make([][]byte, len(keys)), make([][]byte, len(keys))
		for i := range keys {
			pa[i], pb[i] = storetest.Page(tag+byte(i)), storetest.Page(tag+byte(i))
		}
		passedA, passedB := append([][]byte(nil), pa...), append([][]byte(nil), pb...)
		ad, ae := w.parent.MultiPut(w.now, keys, pa)
		bd, be := w.core.MultiPut(w.now, keys, pb)
		w.sameErr(ae, be)
		w.sameTime(ad, bd)
		if a, b := handBack(pa, passedA), handBack(pb, passedB); !reflect.DeepEqual(a, b) {
			w.failf("hand-back differs:\n  parent %v\n  core   %v", a, b)
		}
		// The caller owns what came back: scribbling on it must not show in
		// any later read on either side.
		for i := range keys {
			if pa[i] != nil && (ae == nil || &pa[i][0] != &passedA[i][0]) {
				storetest.Scribble(pa[i])
				storetest.Scribble(pb[i])
			}
		}
	case r < 0.86:
		w.op = "multiget"
		keys := batch()
		a, ad, ae := w.parent.MultiGet(w.now, keys)
		b, bd, be := w.core.MultiGet(w.now, keys)
		w.sameErr(ae, be)
		if ae == nil {
			for i := range keys {
				w.sameData(fmt.Sprintf("entry %d", i), a[i], b[i])
			}
		}
		w.sameTime(ad, bd)
	default:
		w.op = "delete"
		ad, ae := w.parent.Delete(w.now, key)
		bd, be := w.core.Delete(w.now, key)
		w.sameErr(ae, be)
		w.sameTime(ad, bd)
	}
	w.sameState()
}

// replicatedMembers builds the member stacks of one side: a mix of backends
// that error, spike and (memcached, sized for a few hundred pages) evict.
func replicatedMembers(seed uint64, n int) []kvstore.Store {
	members := make([]kvstore.Store, n)
	for i := range members {
		var inner kvstore.Store
		switch i % 3 {
		case 0:
			inner = ramcloud.New(ramcloud.DefaultParams(), seed+uint64(i))
		case 1:
			inner = dram.New(dram.DefaultParams(), seed+uint64(i))
		default:
			p := memcached.DefaultParams()
			p.CapacityBytes = 1 << 20
			inner = memcached.New(p, seed+uint64(i))
		}
		members[i] = faulty.Wrap(inner, faulty.Uniform(0.04, 0.02), seed+100+uint64(i))
	}
	return members
}

func runReplicatedModel(tb testing.TB, seed uint64, members, steps int) {
	tb.Helper()
	parent, err := newParentReplicated(replicatedMembers(seed, members)...)
	if err != nil {
		tb.Fatal(err)
	}
	core, err := replicated.New(replicatedMembers(seed, members)...)
	if err != nil {
		tb.Fatal(err)
	}
	w := &twin{
		tb: tb, label: fmt.Sprintf("replicated(m=%d,seed=%d)", members, seed),
		parent: parent, core: core, exact: true,
		state: func() (any, any) {
			c := core.Counters()
			return [5]uint64{parent.Failovers(), parent.MemberErrors(), parent.PartialPuts(), parent.ReadRepairs(), uint64(parent.Primary())},
				[5]uint64{c.Failovers, c.MemberErrors, c.PartialPuts, c.ReadRepairs, uint64(core.Primary())}
		},
	}
	rng := clock.NewRand(seed ^ 0x5e7)
	for w.step = 0; w.step < steps; w.step++ {
		if rng.Float64() >= 0.06 {
			w.dataOp(rng, 300)
			continue
		}
		i := rng.Intn(members)
		switch rng.Intn(3) {
		case 0:
			w.op = fmt.Sprintf("fail %d", i)
			w.sameErr(parent.Fail(i), core.Fail(i))
		case 1:
			w.op = fmt.Sprintf("recover %d", i)
			w.sameErr(parent.Recover(i), core.Recover(i))
		default:
			w.op = "rotate"
			if a, b := parent.RotatePrimary(), core.RotatePrimary(); a != b {
				w.failf("primaries differ: parent %d, core %d", a, b)
			}
		}
		w.sameState()
	}
}

func runPoolModel(tb testing.TB, seed uint64, nodes, replicas, steps int) {
	tb.Helper()
	cfg := Config{Nodes: nodes, Replicas: replicas, Seed: seed}
	parent, err := newParentPool(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	core, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := &twin{
		tb: tb, label: fmt.Sprintf("pool(n=%d,r=%d,seed=%d)", nodes, replicas, seed),
		parent: parent, core: core,
		state: func() (any, any) {
			return []any{parent.ClusterStats(), parent.Len(), parent.ClientTable().Epoch, parent.NodeNames()},
				[]any{core.ClusterStats(), core.Len(), core.client.Epoch, core.NodeNames()}
		},
	}
	rng := clock.NewRand(seed ^ 0xc1a5)
	for w.step = 0; w.step < steps; w.step++ {
		if rng.Float64() >= 0.05 {
			w.dataOp(rng, 200)
			continue
		}
		name := "node0" // unknown once the table is empty
		if names := core.NodeNames(); len(names) > 0 {
			name = names[rng.Intn(len(names))]
		}
		switch rng.Intn(10) {
		case 0:
			w.op = "add"
			an, ad, ae := parent.AddNode(w.now)
			bn, bd, be := core.AddNode(w.now)
			w.sameErr(ae, be)
			if an != bn {
				w.failf("added %q and %q", an, bn)
			}
			w.sameTime(ad, bd)
		case 1:
			w.op = "drain " + name
			ad, ae := parent.Drain(w.now, name)
			bd, be := core.Drain(w.now, name)
			w.sameErr(ae, be)
			w.sameTime(ad, bd)
		case 2:
			w.op = "crash " + name
			w.sameErr(parent.Crash(w.now, name), core.Crash(w.now, name))
		case 3:
			w.op = "recover"
			ad, an, ae := parent.Recover(w.now)
			bd, bn, be := core.Recover(w.now)
			w.sameErr(ae, be)
			if an != bn {
				w.failf("recover copied %d and %d", an, bn)
			}
			w.sameTime(ad, bd)
		case 4:
			w.op = "partition " + name
			w.sameErr(parent.PartitionNode(name), core.PartitionNode(name))
		case 5:
			w.op = "heal " + name
			ad, ae := parent.HealNode(w.now, name)
			bd, be := core.HealNode(w.now, name)
			w.sameErr(ae, be)
			w.sameTime(ad, bd)
		case 6:
			// The link only: the node comes back holding whatever it held,
			// with no resync — the corner a MultiPut's hand-over can miss.
			w.op = "heal link " + name
			parent.Network().Heal(name)
			core.Network().Heal(name)
		case 7:
			ctrl := controllerNames[rng.Intn(len(controllerNames))]
			w.op = "partition " + ctrl
			parent.Network().Partition(ctrl)
			core.Network().Partition(ctrl)
		case 8:
			ctrl := controllerNames[rng.Intn(len(controllerNames))]
			w.op = "heal " + ctrl
			parent.Network().Heal(ctrl)
			core.Network().Heal(ctrl)
		default:
			w.op = "resync"
			ad, an := parent.Resync(w.now)
			bd, bn := core.Resync(w.now)
			if an != bn {
				w.failf("resync copied %d and %d", an, bn)
			}
			w.sameTime(ad, bd)
		}
		w.sameState()
	}
}
