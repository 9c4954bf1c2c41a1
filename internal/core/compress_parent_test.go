package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// parentTier is the compressed tier as it stood while it kept its own index:
// a map from key to blob and a FIFO slice of keys with a linear removal. It
// is the reference the page-table view is held to, op for op. Copied with
// the type renamed; drainTo gains the partition filter of the view (an
// export drains only the exported VM's pages, in FIFO order).
type parentTier struct {
	params CompressParams
	rng    *clock.Rand

	entries map[kvstore.Key][]byte
	order   []kvstore.Key
	bytes   uint64

	stats CompressStats
}

func newParentTier(p CompressParams, seed uint64) *parentTier {
	return &parentTier{params: p, rng: clock.NewRand(seed), entries: make(map[kvstore.Key][]byte)}
}

func (c *parentTier) offer(now time.Duration, key kvstore.Key, page []byte) (done time.Duration, accepted bool, displaced []displacedPage, err error) {
	done = now + c.params.CompressCPU.Sample(c.rng)
	compressed := compressPage(page)
	if float64(len(compressed)) > c.params.MaxRatio*float64(len(page)) {
		c.stats.Rejected++
		return done, false, nil, nil
	}
	if old, exists := c.entries[key]; exists {
		c.bytes -= uint64(len(old))
		c.stats.RawBytes -= PageSize
		c.removeFromOrder(key)
	}
	c.entries[key] = compressed
	c.order = append(c.order, key)
	c.bytes += uint64(len(compressed))
	c.stats.Stored++
	c.stats.RawBytes += PageSize
	for c.bytes > c.params.PoolBytes && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		blob, ok := c.entries[victim]
		if !ok {
			continue
		}
		delete(c.entries, victim)
		c.bytes -= uint64(len(blob))
		c.stats.RawBytes -= PageSize
		c.stats.Overflowed++
		raw, derr := decompressPage(blob)
		if derr != nil {
			return done, false, nil, fmt.Errorf("core: corrupt pool entry %v: %w", victim, derr)
		}
		done += c.params.DecompressCPU.Sample(c.rng)
		displaced = append(displaced, displacedPage{key: victim, data: raw})
	}
	c.stats.PoolBytes = c.bytes
	return done, true, displaced, nil
}

func (c *parentTier) take(now time.Duration, key kvstore.Key) ([]byte, time.Duration, bool, error) {
	blob, ok := c.entries[key]
	if !ok {
		return nil, now, false, nil
	}
	delete(c.entries, key)
	c.removeFromOrder(key)
	c.bytes -= uint64(len(blob))
	c.stats.RawBytes -= PageSize
	c.stats.PoolBytes = c.bytes
	c.stats.Hits++
	raw, err := decompressPage(blob)
	if err != nil {
		return nil, now, false, fmt.Errorf("core: corrupt pool entry %v: %w", key, err)
	}
	return raw, now + c.params.DecompressCPU.Sample(c.rng), true, nil
}

func (c *parentTier) drop(key kvstore.Key) {
	if blob, ok := c.entries[key]; ok {
		delete(c.entries, key)
		c.removeFromOrder(key)
		c.bytes -= uint64(len(blob))
		c.stats.RawBytes -= PageSize
		c.stats.PoolBytes = c.bytes
	}
}

func (c *parentTier) drainTo(now time.Duration, wb *writeback, part kvstore.PartitionID) (time.Duration, error) {
	kept := c.order[:0]
	for _, key := range c.order {
		if key.Partition() != part {
			kept = append(kept, key)
			continue
		}
		blob, ok := c.entries[key]
		if !ok {
			continue
		}
		delete(c.entries, key)
		c.bytes -= uint64(len(blob))
		c.stats.RawBytes -= PageSize
		raw, err := decompressPage(blob)
		if err != nil {
			return now, fmt.Errorf("core: corrupt pool entry %v: %w", key, err)
		}
		now += c.params.DecompressCPU.Sample(c.rng)
		if now, err = wb.Enqueue(now, key, raw, true); err != nil {
			return now, err
		}
	}
	c.order = kept
	c.stats.PoolBytes = c.bytes
	return now, nil
}

func (c *parentTier) removeFromOrder(key kvstore.Key) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// Tier ops of the lockstep drivers.
const (
	tierOffer = iota
	tierTake
	tierDrop
	tierDrain
	tierOps
)

// tierPairKeys is the page count of each of the drivers' two partitions;
// each partition's pages are a region of their own, partition 1's at
// testBase and partition 2's right above it.
const tierPairKeys = 24

// tierTable returns a page table with the drivers' two regions.
func tierTable() *pageTable {
	pages := newPageTable()
	pages.addRegion(testBase, tierPairKeys*PageSize, 7, 1)
	pages.addRegion(addr(tierPairKeys), tierPairKeys*PageSize, 8, 2)
	return pages
}

// tierPair drives the page-table view and the parent tier side by side, each
// with its own write-back engine over its own store for drains.
type tierPair struct {
	now    time.Duration
	view   *compressedTier
	viewWB *writeback
	parent *parentTier
	parWB  *writeback
}

func newTierPair(poolBytes uint64, seed uint64) *tierPair {
	p := DefaultCompressParams(poolBytes)
	pages := tierTable()
	return &tierPair{
		view:   newCompressedTier(pages, p, seed),
		viewWB: newWriteback(pages, dram.New(dram.DefaultParams(), 1), 1<<20, 1, nil),
		parent: newParentTier(p, seed),
		parWB:  newWriteback(tierTable(), dram.New(dram.DefaultParams(), 1), 1<<20, 1, nil),
	}
}

// tierKey is page n's key: even pages in partition 1, odd in partition 2,
// each partition's page n%tierPairKeys.
func tierKey(n int) kvstore.Key {
	part := 1 + n%2
	return kvstore.MakeKey(addr((part-1)*tierPairKeys+n%tierPairKeys), kvstore.PartitionID(part))
}

// tierPage builds a page of one of four densities: all zeroes, one byte,
// half filled (pooled, but a few fill a small pool) and dense (rejected).
func tierPage(density int, tag byte) []byte {
	p := make([]byte, PageSize)
	switch density % 4 {
	case 1:
		p[int(tag)*13%PageSize] = tag | 1
	case 2:
		for j := 0; j < PageSize/2; j++ {
			p[j] = tag + byte(j) | 1
		}
	case 3:
		for j := range p {
			p[j] = tag + byte(j*7) | 1
		}
	}
	return p
}

// sameDisplaced compares two displaced lists key for key and byte for byte.
func sameDisplaced(a, b []displacedPage) bool {
	return slices.EqualFunc(a, b, func(x, y displacedPage) bool {
		return x.key == y.key && bytes.Equal(x.data, y.data)
	})
}

// queuedWrites lists an engine's write list, oldest first.
func queuedWrites(w *writeback) []displacedPage {
	var out []displacedPage
	for i := w.queue.Head; i != 0; i = w.pages.queueLinks[i].Next {
		out = append(out, displacedPage{key: kvstore.Key(w.pages.recs[i].id), data: w.pages.recs[i].data})
	}
	return out
}

// op applies one op to both tiers and fails at the first difference.
func (g *tierPair) op(t *testing.T, step, kind, n, density int) {
	t.Helper()
	key := tierKey(n)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (op %d, key %v): %s", step, kind, key, fmt.Sprintf(format, args...))
	}
	switch kind {
	case tierOffer:
		page := tierPage(density, byte(step))
		vDone, vOK, vDisp, vErr := g.view.offer(g.now, key, page)
		pDone, pOK, pDisp, pErr := g.parent.offer(g.now, key, page)
		if vErr != nil || pErr != nil {
			fail("offer errors %v, parent %v", vErr, pErr)
		}
		if vDone != pDone || vOK != pOK || !sameDisplaced(vDisp, pDisp) {
			fail("offer = (%v, %v, %d displaced), parent (%v, %v, %d displaced)", vDone, vOK, len(vDisp), pDone, pOK, len(pDisp))
		}
		g.now = vDone
	case tierTake:
		vData, vDone, vHit, vErr := g.view.take(g.now, key)
		pData, pDone, pHit, pErr := g.parent.take(g.now, key)
		if vErr != nil || pErr != nil {
			fail("take errors %v, parent %v", vErr, pErr)
		}
		if vDone != pDone || vHit != pHit || !bytes.Equal(vData, pData) {
			fail("take = (%v, %v), parent (%v, %v), same bytes %v", vDone, vHit, pDone, pHit, bytes.Equal(vData, pData))
		}
		g.now = vDone
	case tierDrop:
		g.view.drop(key)
		g.parent.drop(key)
	case tierDrain:
		part := key.Partition()
		vDone, vErr := g.view.drainTo(g.now, part, g.viewWB.Enqueue)
		pDone, pErr := g.parent.drainTo(g.now, g.parWB, part)
		if vErr != nil || pErr != nil {
			fail("drain errors %v, parent %v", vErr, pErr)
		}
		if vq, pq := queuedWrites(g.viewWB), queuedWrites(g.parWB); vDone != pDone || !sameDisplaced(vq, pq) {
			fail("drain of partition %d = (%v, %d pages), parent (%v, %d pages)", part, vDone, len(vq), pDone, len(pq))
		}
		g.now = vDone
		// Flush both, so no drained page stays queued for a later offer.
		if _, err := g.viewWB.Drain(g.now); err != nil {
			fail("drain write list: %v", err)
		}
		if _, err := g.parWB.Drain(g.now); err != nil {
			fail("parent drain write list: %v", err)
		}
	}
	if g.view.stats != g.parent.stats {
		fail("stats %+v, parent %+v", g.view.stats, g.parent.stats)
	}
	if g.view.pool.Len != len(g.parent.order) {
		fail("%d pages pooled, parent %d", g.view.pool.Len, len(g.parent.order))
	}
}

// TestTierMatchesParent drives the page-table view and the parent tier with
// random offers, takes, drops and drains over pages of mixed density in
// pools of several sizes, holding every result to the parent's.
func TestTierMatchesParent(t *testing.T) {
	for _, pool := range []uint64{PageSize / 4, PageSize, 2 * PageSize, 8 * PageSize, 1 << 20} {
		t.Run(fmt.Sprint(pool), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pool)))
			g := newTierPair(pool, 11)
			for step := 0; step < 4000; step++ {
				// Offers 4 in 8, takes 2 in 8, drops and drains 1 in 8 each.
				kind := [8]int{tierOffer, tierOffer, tierOffer, tierOffer, tierTake, tierTake, tierDrop, tierDrain}[rng.Intn(8)]
				g.op(t, step, kind, rng.Intn(tierPairKeys), rng.Intn(4))
			}
		})
	}
}

// FuzzTierMatchesParent is TestTierMatchesParent under the fuzzer: the
// stream's first byte picks the pool size, and every two bytes after it are
// one op, its page and the density of an offer.
func FuzzTierMatchesParent(f *testing.F) {
	f.Add([]byte{4, 0, 2, 0, 4, 0, 8, 0, 2, 0x21, 6, 0x10, 0, 0x83, 2})
	f.Add([]byte{1, 0, 6, 0, 10, 0, 6, 0x82, 1, 0x40, 0, 0xc0, 2})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		g := newTierPair(uint64(1+data[0]%16)*PageSize/4, 3)
		for step, data := 0, data[1:]; len(data) >= 2; step, data = step+1, data[2:] {
			g.op(t, step, int(data[0]>>6)%tierOps, int(data[0]&0x3f), int(data[1]))
		}
	})
}

// TestTierAndWriteListExclusive pins that a record is never queued and
// pooled at once: offering a queued page panics, and so does queueing a
// pooled one, as a double LRU insert does.
func TestTierAndWriteListExclusive(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	sparse := tierPage(1, 9)
	g := newTierPair(1<<20, 5)
	if _, err := g.viewWB.Enqueue(0, tierKey(0), tierPage(1, 1), true); err != nil {
		t.Fatal(err)
	}
	mustPanic("offering a queued page", func() { g.view.offer(0, tierKey(0), sparse) })
	if _, ok, _, err := g.view.offer(0, tierKey(2), sparse); !ok || err != nil {
		t.Fatalf("offer of a sparse page: accepted %v, %v", ok, err)
	}
	mustPanic("queueing a pooled page", func() { g.viewWB.Enqueue(0, tierKey(2), tierPage(1, 2), true) })
}
