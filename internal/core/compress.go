package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/ilist"
	"fluidmem/internal/kvstore"
)

// This file implements the page-compression customisation the paper lists
// among the provider-side benefits of user-space paging (§III: "Some
// examples are page compression or replication across remote servers").
//
// The design is zswap-like: evicted pages that compress well are parked in a
// bounded hypervisor-local pool of compressed frames; a refault that hits
// the pool is resolved with a decompression (a microsecond of CPU) instead
// of a network round trip. Pages that compress poorly, and pool overflow,
// take the normal path to the remote store. Memory pages — page tables,
// zeroed heap, sparse data — are typically zero-heavy, so a simple zero-run
// codec captures most of the win at negligible CPU cost.

// CompressParams configures the compressed tier.
type CompressParams struct {
	// PoolBytes bounds the compressed pool's payload.
	PoolBytes uint64
	// MaxRatio is the largest compressed/raw ratio worth keeping; pages
	// compressing worse go straight to the store. zswap uses ~0.9.
	MaxRatio float64
	// CompressCPU and DecompressCPU are the per-page codec costs.
	CompressCPU   clock.LatencyModel
	DecompressCPU clock.LatencyModel
}

// DefaultCompressParams returns a tier sized at poolBytes with lzo-class
// codec costs.
func DefaultCompressParams(poolBytes uint64) CompressParams {
	return CompressParams{
		PoolBytes:     poolBytes,
		MaxRatio:      0.75,
		CompressCPU:   clock.LatencyModel{Base: 2800 * time.Nanosecond, Jitter: 300 * time.Nanosecond},
		DecompressCPU: clock.LatencyModel{Base: 1200 * time.Nanosecond, Jitter: 150 * time.Nanosecond},
	}
}

// CompressStats counts tier activity.
type CompressStats struct {
	// Stored counts pages parked in the pool.
	Stored uint64
	// Rejected counts pages that compressed too poorly for the pool.
	Rejected uint64
	// Hits counts refaults resolved from the pool (round trips saved).
	Hits uint64
	// Overflowed counts pages displaced from the pool to the store.
	Overflowed uint64
	// PoolBytes is the current compressed payload.
	PoolBytes uint64
	// RawBytes is the uncompressed size of pooled pages.
	RawBytes uint64
}

// compressedTier is the pool: the page table's third view, beside lruList
// and writeback. A pooled page's record is in state recPooled and holds the
// compressed blob in its data field; pooled records form one FIFO, oldest
// first, threaded through the table's queueLinks, which they can borrow
// because a record is never queued and pooled at once. The FIFO order is the
// overflow order, consistent with the monitor's LRU.
type compressedTier struct {
	params CompressParams
	rng    *clock.Rand
	pages  *pageTable
	pool   ilist.List
	// stats.PoolBytes is the pool's byte count, kept live.
	stats CompressStats
}

func newCompressedTier(pages *pageTable, p CompressParams, seed uint64) *compressedTier {
	return &compressedTier{params: p, rng: clock.NewRand(seed), pages: pages}
}

// offer tries to park an evicted page. It returns accepted=false (and the
// untouched page) when the page compresses poorly. A page already pooled is
// replaced and moves to the back of the FIFO. Pool overflow is returned as
// displaced raw pages for the caller to push to the store.
func (c *compressedTier) offer(now time.Duration, key kvstore.Key, page []byte) (done time.Duration, accepted bool, displaced []displacedPage, err error) {
	done = now + c.params.CompressCPU.Sample(c.rng)
	compressed := compressPage(page)
	if float64(len(compressed)) > c.params.MaxRatio*float64(len(page)) {
		c.stats.Rejected++
		return done, false, nil, nil
	}
	if e, i, ok := c.pooled(key); ok {
		c.unpool(e, i) // a re-offer goes to the back
	}
	i := c.pages.track(c.pages.byKey(key, true), uint64(key))
	r := &c.pages.recs[i]
	if r.state&recQueued != 0 {
		panic("core: queued page offered to the compressed tier")
	}
	r.state |= recPooled
	r.data = compressed
	c.pool.PushBack(c.pages.queueLinks, i)
	c.stats.PoolBytes += uint64(len(compressed))
	c.stats.Stored++
	c.stats.RawBytes += PageSize

	// Overflow: displace oldest entries until within budget.
	for c.stats.PoolBytes > c.params.PoolBytes {
		i := c.pool.Head
		victim := kvstore.Key(c.pages.recs[i].id)
		raw, derr := decompressPage(c.unpool(c.pages.byKey(victim, false), i))
		c.stats.Overflowed++
		if derr != nil {
			return done, false, nil, fmt.Errorf("core: corrupt pool entry %v: %w", victim, derr)
		}
		done += c.params.DecompressCPU.Sample(c.rng)
		displaced = append(displaced, displacedPage{key: victim, data: raw})
	}
	return done, true, displaced, nil
}

// take resolves a refault from the pool, removing the entry.
func (c *compressedTier) take(now time.Duration, key kvstore.Key) ([]byte, time.Duration, bool, error) {
	e, i, ok := c.pooled(key)
	if !ok {
		return nil, now, false, nil
	}
	c.stats.Hits++
	raw, err := decompressPage(c.unpool(e, i))
	if err != nil {
		return nil, now, false, fmt.Errorf("core: corrupt pool entry %v: %w", key, err)
	}
	return raw, now + c.params.DecompressCPU.Sample(c.rng), true, nil
}

// drop discards a pooled page (balloon discard, VM teardown).
func (c *compressedTier) drop(key kvstore.Key) {
	if e, i, ok := c.pooled(key); ok {
		c.unpool(e, i)
	}
}

// drainTo empties part's pooled pages, oldest first, onto the write list
// through enqueue (migration export). Other partitions' pages stay pooled.
func (c *compressedTier) drainTo(now time.Duration, part kvstore.PartitionID, enqueue func(time.Duration, kvstore.Key, []byte, bool) (time.Duration, error)) (time.Duration, error) {
	for i := c.pool.Head; i != 0; {
		key, next := kvstore.Key(c.pages.recs[i].id), c.pages.queueLinks[i].Next
		if key.Partition() == part {
			raw, err := decompressPage(c.unpool(c.pages.byKey(key, false), i))
			if err != nil {
				return now, fmt.Errorf("core: corrupt pool entry %v: %w", key, err)
			}
			now += c.params.DecompressCPU.Sample(c.rng)
			if now, err = enqueue(now, key, raw, true); err != nil {
				return now, err
			}
		}
		i = next
	}
	return now, nil
}

// pooled resolves key's entry and, if the page is pooled, its record.
func (c *compressedTier) pooled(key kvstore.Key) (e *uint32, i uint32, ok bool) {
	e = c.pages.byKey(key, false)
	i = *e & entSlot
	return e, i, c.pages.recs[i].state&recPooled != 0
}

// unpool takes pooled record i, which entry e points to, off the pool and
// returns its blob. It is the one removal path: take, drop, overflow and
// drain all end here.
func (c *compressedTier) unpool(e *uint32, i uint32) []byte {
	c.pool.Remove(c.pages.queueLinks, i)
	r := &c.pages.recs[i]
	blob := r.data
	r.data = nil
	r.state &^= recPooled
	c.pages.release(e, i)
	c.stats.PoolBytes -= uint64(len(blob))
	c.stats.RawBytes -= PageSize
	return blob
}

// displacedPage is a pool-overflow victim headed for the store.
type displacedPage struct {
	key  kvstore.Key
	data []byte
}

// Zero-run codec. Format: a sequence of tokens —
//
//	0xFF <uvarint n>              → n zero bytes
//	0xFE <uvarint n> <n bytes>    → n literal bytes
//
// Runs of zeros shorter than 8 bytes stay literal (token overhead).
const (
	tokZeros   = 0xFF
	tokLiteral = 0xFE
	minZeroRun = 8
)

// errCorruptBlob reports an undecodable compressed page.
var errCorruptBlob = errors.New("core: corrupt compressed page")

// compressPage encodes page with the zero-run codec. The result may be
// longer than the input for incompressible data; callers compare sizes.
func compressPage(page []byte) []byte {
	out := make([]byte, 0, len(page)/4)
	var scratch [binary.MaxVarintLen64]byte
	i := 0
	for i < len(page) {
		// Measure the zero run starting here.
		j := i
		for j < len(page) && page[j] == 0 {
			j++
		}
		if j-i >= minZeroRun {
			out = append(out, tokZeros)
			n := binary.PutUvarint(scratch[:], uint64(j-i))
			out = append(out, scratch[:n]...)
			i = j
			continue
		}
		// Literal run: up to the next long zero run.
		start := i
		zeros := 0
		for i < len(page) {
			if page[i] == 0 {
				zeros++
				if zeros >= minZeroRun {
					i -= zeros - 1
					zeros = 0
					break
				}
			} else {
				zeros = 0
			}
			i++
		}
		lit := page[start:i]
		out = append(out, tokLiteral)
		n := binary.PutUvarint(scratch[:], uint64(len(lit)))
		out = append(out, scratch[:n]...)
		out = append(out, lit...)
	}
	return out
}

// decompressPage decodes a blob produced by compressPage into a full page.
func decompressPage(blob []byte) ([]byte, error) {
	out := make([]byte, 0, PageSize)
	i := 0
	for i < len(blob) {
		tok := blob[i]
		i++
		n, used := binary.Uvarint(blob[i:])
		if used <= 0 {
			return nil, errCorruptBlob
		}
		i += used
		switch tok {
		case tokZeros:
			if uint64(len(out))+n > PageSize {
				return nil, errCorruptBlob
			}
			out = append(out, make([]byte, n)...)
		case tokLiteral:
			if uint64(i)+n > uint64(len(blob)) || uint64(len(out))+n > PageSize {
				return nil, errCorruptBlob
			}
			out = append(out, blob[i:i+int(n)]...)
			i += int(n)
		default:
			return nil, errCorruptBlob
		}
	}
	if len(out) != PageSize {
		return nil, fmt.Errorf("%w: decoded %d bytes", errCorruptBlob, len(out))
	}
	return out, nil
}
