package core

// This file is the monitor's parallel execution mode: N OS goroutines, one
// per shard, each exclusively owning its shard's page frames and pending
// write-list buffers, fed by bounded SPSC work rings (spsc.go).
//
// The design is Calvin-style deterministic execution, split along the
// logical/physical axis:
//
//   - The *sequencer* (the caller's goroutine) runs the cheap logical state
//     machine — seen set, LRU membership and victim selection, clean/zero
//     marks, write-list queue membership, all counters, trace digests — in
//     strict program order, exactly mirroring the single-thread data plane's
//     decisions (dataplane.go / prefetch.go / writelist.go). Because every
//     decision in the serial monitor depends only on logical state, never on
//     virtual time, the sequencer can replay it without any clock at all.
//   - The *shard executors* do the physical work — page-frame installs and
//     copies, store Gets/Puts, delivery of page data to the driver — each
//     touching only its own shard's maps, in the exact per-shard order the
//     sequencer emitted.
//
// Two lightweight global orders make the physical side deterministic where
// it must be:
//
//   - A store turnstile: the sequencer stamps every store operation with a
//     global sequence number at its exact serial program point; an executor
//     performs the operation only when all earlier-stamped operations have
//     completed. The store therefore observes the identical operation
//     sequence as the single-thread monitor (order-sensitive backends like
//     the memcached model depend on this), and store ops never race.
//   - A read-completion fence: Get results may alias store-internal buffers,
//     so readers copy them out *after* releasing their turn, and every
//     mutating operation waits until all reads stamped before it have
//     finished copying (readsBefore vs. readsDone).
//
// Deadlock freedom: an item only ever waits on turns, read counts, or job
// flags produced by items with *earlier* stamps, and per-shard FIFOs emit in
// stamp order, so every wait references work that is already runnable.
//
// Parity with the single-thread monitor is pinned by the paralleltest
// oracle: identical page contents, store contents, resident sets, merged
// counters (minus the two virtual-time-only ones) and per-shard trace
// digests for the same workload.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// parRingCapacity bounds each shard's queued work items; the sequencer
// backpressures (spins) when a shard is this far behind.
const parRingCapacity = 1024

// parJobRing is how many flush/read jobs circulate per pool; acquisition
// waits for the oldest job to complete, bounding in-flight batches.
const parJobRing = 4

// parZeroFrame is the shared all-zero page backing copy-on-write zero
// installs, the analogue of the uffd model's shared zero page. Readers may
// be handed this frame; they must never write through it (the sequencer
// materialises a private frame before any write access).
var parZeroFrame = make([]byte, PageSize)

// parRegion mirrors a registered VM range for the parallel engine.
type parRegion struct {
	start, end uint64
	pid        int
	part       kvstore.PartitionID
}

// parQueued is the sequencer's view of one write-list entry: its global
// enqueue stamp (flush batches gather in stamp order, mirroring the serial
// engine's bit-identical batches) and its precomputed store key.
type parQueued struct {
	seq uint64
	key kvstore.Key
}

// parFlushEnt is flush-gather scratch.
type parFlushEnt struct {
	addr uint64
	seq  uint64
	key  kvstore.Key
}

// parCand is one readahead candidate picked by the sequencer's gather pass.
type parCand struct {
	addr      uint64
	key       kvstore.Key
	slot      int32
	stolen    bool
	installed bool
}

// parFlushJob carries one MultiPut batch. The sequencer fills keys and the
// metadata, then emits one piContribute per entry to the entry's owning
// shard; each contributor parks its pending buffer in its slot, and the
// last one to arrive performs the MultiPut at the job's store turn.
type parFlushJob struct {
	keys        []kvstore.Key
	pages       [][]byte
	n           int
	storeSeq    uint64
	readsBefore uint64
	remaining   atomic.Int32
	// done is the pool gate: 1 = job idle and reusable.
	done atomic.Uint32
}

// parReadJob carries one batch of store reads (a batched MultiGet or a
// pipelined window of per-page Gets). Getter items fill pages and raise the
// per-slot ready flags; exactly one consume/drop item retires each slot.
// consumers reaching zero is the pool gate.
type parReadJob struct {
	keys      []kvstore.Key
	pages     [][]byte
	ready     []atomic.Uint32
	n         int
	consumers atomic.Int32
}

// parWorker is one shard executor's exclusively-owned state.
type parWorker struct {
	ring *spscRing
	// frames maps resident pages to their frames; a nil value is the
	// copy-on-write zero sentinel (the page reads as parZeroFrame until a
	// write materialises a private frame).
	frames map[uint64][]byte
	// pending holds write-list buffers for this shard's queued evictions.
	pending map[uint64][]byte
}

// framePool recycles page frames across shards. The mutex is uncontended in
// steady state (one get + one put per fault, microseconds apart).
type framePool struct {
	mu   sync.Mutex
	free [][]byte
}

func (fp *framePool) get() []byte {
	fp.mu.Lock()
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free = fp.free[:n-1]
		fp.mu.Unlock()
		return f
	}
	fp.mu.Unlock()
	return make([]byte, PageSize)
}

func (fp *framePool) put(f []byte) {
	if f == nil || len(f) != PageSize {
		return
	}
	fp.mu.Lock()
	fp.free = append(fp.free, f)
	fp.mu.Unlock()
}

// padCounter is an atomic counter on its own cache line.
type padCounter struct {
	_ [64]byte
	v atomic.Uint64
	_ [56]byte
}

// Parallel is the multi-goroutine execution mode of the monitor. It serves
// the same fault pipeline as Monitor but with real CPU parallelism and no
// virtual clock: wall time is the only time. Page data reaches the driver
// through the onData callback instead of a return value — it fires on the
// owning shard's goroutine, in per-shard ticket order, with the frame bytes
// valid (and, for write accesses, mutable) for the duration of the call.
type Parallel struct {
	cfg       Config
	store     kvstore.Store
	shards    int
	idx       shardIndexer
	batchSize int
	onData    func(shard int, ticket, addr uint64, data []byte)

	// ---- sequencer-owned logical state (no locks: single goroutine) ----
	pages *pageTable
	lru   *lruList
	// clean marks store-backed installs not yet written (CleanPageDrop);
	// zeroMark is the zero bitmap; storePresent predicts store membership so
	// the sequencer can mirror read-miss decisions without doing the read.
	clean        map[uint64]bool
	zeroMark     map[uint64]bool
	storePresent map[uint64]bool
	queued       map[uint64]parQueued
	queuedCount  int
	wbNextSeq    uint64

	registry     kvstore.Registry
	hypervisorID string
	partitions   map[int]kvstore.PartitionID
	regions      []parRegion

	epoch    uint64
	wpFaults uint64
	cells    []Stats
	// digs are the per-shard logical trace digests (see FoldTraceEvent).
	digs []uint64

	wbFlushes, wbFlushedPages uint64
	wbSteals, wbCoalesced     uint64
	wbZeroMarks               uint64
	flushSizes                map[int]uint64

	ticket      uint64
	storeSeqCtr uint64
	readsSeen   uint64

	flushScratch []parFlushEnt
	candScratch  []parCand
	intake       *intakeRing
	err          error
	closed       bool

	// ---- shared with executors ----
	workers   []parWorker
	frames    framePool
	storeDone padCounter
	readsDone padCounter
	stop      atomic.Bool
	wg        sync.WaitGroup

	execMu   sync.Mutex
	execErr  error
	execFlag atomic.Bool

	fjobs    []*parFlushJob
	fjobNext int
	rjobs    []*parReadJob
	rjobNext int
}

// NewParallel builds the parallel engine. The single-thread monitor remains
// the determinism reference; features whose semantics are defined by virtual
// time or by mid-run introspection of worker horizons (tracing, hotset
// estimation, the compressed tier, resilience policies) are rejected rather
// than silently diverging.
func NewParallel(cfg Config, registry kvstore.Registry, hypervisorID string,
	onData func(shard int, ticket, addr uint64, data []byte)) (*Parallel, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrBadConfig)
	}
	if cfg.LRUCapacity < 1 {
		return nil, fmt.Errorf("%w: LRU capacity %d < 1", ErrBadConfig, cfg.LRUCapacity)
	}
	if cfg.Trace != nil {
		return nil, fmt.Errorf("%w: parallel mode has no virtual-time spans to trace; use the single-thread monitor", ErrBadConfig)
	}
	if cfg.Hotset != nil {
		return nil, fmt.Errorf("%w: parallel mode does not drive a hotset tracker", ErrBadConfig)
	}
	if cfg.Compress != nil {
		return nil, fmt.Errorf("%w: parallel mode does not support the compressed tier", ErrBadConfig)
	}
	if cfg.Resilience != nil {
		return nil, fmt.Errorf("%w: parallel mode does not support resilience policies", ErrBadConfig)
	}
	if registry == nil {
		registry = kvstore.NewLocalRegistry()
	}
	if hypervisorID == "" {
		hypervisorID = "hypervisor-0"
	}
	shards := cfg.Workers
	if shards < 1 {
		shards = 1
	}
	batch := cfg.WriteBatchSize
	if batch <= 0 {
		batch = 32
	}
	maxRead := cfg.PrefetchPages + 1
	pages := newPageTable()
	p := &Parallel{
		cfg:          cfg,
		store:        cfg.Store,
		shards:       shards,
		idx:          newShardIndexer(shards),
		batchSize:    batch,
		onData:       onData,
		pages:        pages,
		lru:          newShardedLRU(pages, shards),
		clean:        make(map[uint64]bool, cfg.LRUCapacity+1),
		zeroMark:     make(map[uint64]bool, batch),
		storePresent: make(map[uint64]bool, 4*cfg.LRUCapacity),
		queued:       make(map[uint64]parQueued, batch),
		registry:     registry,
		hypervisorID: hypervisorID,
		partitions:   make(map[int]kvstore.PartitionID),
		cells:        make([]Stats, shards),
		digs:         make([]uint64, shards),
		flushSizes:   make(map[int]uint64, 16),
		flushScratch: make([]parFlushEnt, 0, batch),
		candScratch:  make([]parCand, 0, maxRead),
		intake:       newIntakeRing(intakeCapacity),
		workers:      make([]parWorker, shards),
	}
	for i := 0; i < parJobRing; i++ {
		fj := &parFlushJob{
			keys:  make([]kvstore.Key, batch),
			pages: make([][]byte, batch),
		}
		fj.done.Store(1)
		p.fjobs = append(p.fjobs, fj)
		p.rjobs = append(p.rjobs, &parReadJob{
			keys:  make([]kvstore.Key, maxRead),
			pages: make([][]byte, maxRead),
			ready: make([]atomic.Uint32, maxRead),
		})
	}
	for s := 0; s < shards; s++ {
		p.workers[s] = parWorker{
			ring:    newSPSCRing(parRingCapacity),
			frames:  make(map[uint64][]byte, cfg.LRUCapacity+1),
			pending: make(map[uint64][]byte, batch),
		}
	}
	p.wg.Add(shards)
	for s := 0; s < shards; s++ {
		go p.runWorker(s)
	}
	return p, nil
}

// RegisterRange registers [start, start+length) for pid, mirroring
// Monitor.RegisterRange.
func (p *Parallel) RegisterRange(start, length uint64, pid int) error {
	if _, ok := p.partitions[pid]; !ok {
		part, err := p.registry.Allocate(p.hypervisorID, pid)
		if err != nil {
			return fmt.Errorf("core: allocate partition for pid %d: %w", pid, err)
		}
		p.partitions[pid] = part
	}
	p.regions = append(p.regions, parRegion{
		start: start,
		end:   start + length,
		pid:   pid,
		part:  p.partitions[pid],
	})
	p.pages.addRegion(start, length, pid, p.partitions[pid])
	return nil
}

func (p *Parallel) regionFor(addr uint64) *parRegion {
	for i := range p.regions {
		r := &p.regions[i]
		if addr >= r.start && addr < r.end {
			return r
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sequencer: the logical state machine, mirroring dataplane.go decision for
// decision.
// ---------------------------------------------------------------------------

// Touch is the parallel analogue of Monitor.Touch. The page data is
// delivered through onData on the owning shard's goroutine; Touch itself
// only sequences the work and returns sequencing errors.
func (p *Parallel) Touch(addr uint64, write bool) error {
	if p.err != nil {
		return p.err
	}
	if err := p.takeExecErr(); err != nil {
		p.err = err
		return err
	}
	p.drainIntakePar()
	addr &^= uint64(PageSize - 1)
	tk := p.ticket
	p.ticket++
	s := p.idx.index(addr)
	if p.lru.Contains(addr) {
		// Resident hit. A write through clean-tracking write protection trips
		// the (simulated) WP fault: counter bump, protection cleared, private
		// frame materialised by the executor on the COW-zero case.
		if write && p.clean[addr] {
			delete(p.clean, addr)
			p.wpFaults++
		}
		p.post(s, parItem{kind: piAccessHit, addr: addr, write: write, ticket: tk})
		return nil
	}
	region := p.regionFor(addr)
	if region == nil {
		p.err = fmt.Errorf("core: access to unregistered page %#x", addr)
		return p.err
	}
	p.cells[s].Faults++
	if !p.pages.seen(addr) && p.cfg.PageTracker {
		p.cells[s].FirstTouch++
		p.pages.setSeen(addr)
		return p.zeroFillPar(s, tk, addr, write, "first_touch")
	}
	// Zero-bitmap hit: checked unconditionally, as in the serial plane — a
	// standing mark means any store copy is stale.
	if p.zeroMark[addr] {
		delete(p.zeroMark, addr)
		p.cells[s].ZeroRefills++
		return p.zeroFillPar(s, tk, addr, write, "zero_refill")
	}
	path, batched, err := p.resolveStorePar(s, tk, addr, write, region)
	if err != nil {
		p.err = err
		return err
	}
	if p.cfg.PrefetchPages > 0 && !batched {
		if err := p.prefetchPar(addr, region); err != nil {
			return err
		}
	}
	// FAULT folds last, after any readahead events — the serial monitor's
	// traceFault runs after the prefetch pipeline.
	p.foldShard(s, trace.EvFault, addr, path)
	return nil
}

// zeroFillPar mirrors zeroFill: install the zero page, then evict past the
// bound (the serial plane evicts after the wake, so the threshold is > not >=).
func (p *Parallel) zeroFillPar(s int, tk, addr uint64, write bool, path string) error {
	p.post(s, parItem{kind: piZeroInstall, addr: addr, write: write, ticket: tk})
	p.epoch++
	p.lru.Insert(addr)
	for p.lru.Len() > p.cfg.LRUCapacity {
		if err := p.evictOnePar(); err != nil {
			p.err = err
			return err
		}
	}
	p.foldShard(s, trace.EvFault, addr, path)
	return nil
}

// resolveStorePar mirrors resolveFromStore (minus the compressed tier and
// the timing-only in-flight wait, which changes no logical state).
func (p *Parallel) resolveStorePar(s int, tk, addr uint64, write bool, region *parRegion) (path string, batched bool, err error) {
	key := kvstore.MakeKey(addr, region.part)
	if p.cfg.StealEnabled && p.cfg.AsyncWrite {
		if _, ok := p.queued[addr]; ok {
			// Steal shortcut: the pending buffer becomes the frame again.
			p.removeQueued(addr)
			p.wbSteals++
			p.foldShard(s, trace.EvSteal, addr, "")
			p.cells[s].Steals++
			for p.lru.Len() >= p.cfg.LRUCapacity {
				if err := p.evictOnePar(); err != nil {
					return "steal", false, err
				}
			}
			p.post(s, parItem{kind: piStealInstall, addr: addr, write: write, ticket: tk})
			p.epoch++
			p.lru.Insert(addr)
			return "steal", false, nil
		}
	} else if p.cfg.AsyncWrite {
		if _, ok := p.queued[addr]; ok {
			// No stealing: the queued write must flush before the read.
			if err := p.flushPar(); err != nil {
				return "read", false, fmt.Errorf("core: forced flush for %v: %w", key, err)
			}
		}
	}
	p.cells[s].RemoteReads++
	if p.cfg.AsyncRead && p.cfg.BatchReads && p.cfg.PrefetchPages > 0 {
		err := p.batchedReadPar(s, tk, addr, key, write, region)
		return "batched_read", true, err
	}
	if !p.storePresent[addr] {
		return "read", false, fmt.Errorf("core: read %v: %w", key, kvstore.ErrNotFound)
	}
	// Demand read: the Get's turn comes before any eviction flush this fault
	// triggers, exactly as the serial plane issues StartGet/Get first.
	seq := p.nextStoreSeq()
	p.readsSeen++
	p.post(s, parItem{kind: piRead, addr: addr, key: key, write: write, ticket: tk, storeSeq: seq})
	for p.lru.Len() >= p.cfg.LRUCapacity {
		if err := p.evictOnePar(); err != nil {
			return "read", false, err
		}
	}
	p.epoch++
	if p.cfg.CleanPageDrop {
		p.clean[addr] = true
	}
	p.lru.Insert(addr)
	// The vCPU's write retry trips the just-armed write protection.
	if write && p.clean[addr] {
		delete(p.clean, addr)
		p.wpFaults++
	}
	return "read", false, nil
}

// batchedReadPar mirrors resolveBatchedRead: demand key plus unstolen
// readahead candidates in one MultiGet, evictions overlapping, readahead
// installed afterwards under the demand-displacement stop rule.
func (p *Parallel) batchedReadPar(s int, tk, addr uint64, key kvstore.Key, write bool, region *parRegion) error {
	cands := p.gatherPar(addr, region)
	rj := p.acquireReadJob()
	rj.keys[0] = key
	n := 1
	for i := range cands {
		c := &cands[i]
		if c.stolen {
			continue
		}
		c.slot = int32(n)
		rj.keys[n] = c.key
		n++
	}
	if !p.storePresent[addr] {
		return fmt.Errorf("core: read %v: %w", key, kvstore.ErrNotFound)
	}
	rj.n = n
	rj.consumers.Store(int32(n)) // demand slot + every unstolen candidate
	seq := p.nextStoreSeq()
	p.readsSeen++
	p.post(s, parItem{kind: piMultiRead, storeSeq: seq, rjob: rj})
	for p.lru.Len() >= p.cfg.LRUCapacity {
		if err := p.evictOnePar(); err != nil {
			return err
		}
	}
	p.epoch++
	if p.cfg.CleanPageDrop {
		p.clean[addr] = true
	}
	p.lru.Insert(addr)
	p.post(s, parItem{kind: piReadConsume, addr: addr, write: write, ticket: tk, slot: 0, rjob: rj})
	if write && p.clean[addr] {
		delete(p.clean, addr)
		p.wpFaults++
	}
	if err := p.installCandsPar(addr, cands, rj); err != nil {
		return err
	}
	return nil
}

// prefetchPar mirrors prefetch: pipelined per-page split reads for the
// readahead window. All Gets take their store turns first (in candidate
// order, before any eviction flush the installs trigger), then installs
// proceed under the stop rule.
func (p *Parallel) prefetchPar(addr uint64, region *parRegion) error {
	cands := p.gatherPar(addr, region)
	if len(cands) == 0 {
		return nil
	}
	rj := p.acquireReadJob()
	n := 0
	for i := range cands {
		c := &cands[i]
		if c.stolen {
			continue
		}
		c.slot = int32(n)
		rj.keys[n] = c.key
		n++
	}
	rj.n = n
	rj.consumers.Store(int32(n))
	for i := range cands {
		c := &cands[i]
		if c.stolen {
			continue
		}
		seq := p.nextStoreSeq()
		p.readsSeen++
		p.post(p.idx.index(c.addr), parItem{
			kind: piSlotGet, addr: c.addr, key: c.key, slot: c.slot,
			storeSeq: seq, expect: p.storePresent[c.addr], rjob: rj,
		})
	}
	return p.installCandsPar(addr, cands, rj)
}

// installCandsPar is the shared readahead-install tail: walk candidates in
// order, skip store misses, stop (for good) the moment readahead would
// displace the demand page, evict for the rest, and emit the install or
// drop item for each slot.
func (p *Parallel) installCandsPar(demand uint64, cands []parCand, rj *parReadJob) error {
	stopped := false
	for i := range cands {
		c := &cands[i]
		if !c.stolen && !p.storePresent[c.addr] {
			continue // store miss: the page will fault normally
		}
		if !stopped {
			if oldest, ok := p.lru.Oldest(); ok && oldest == demand && p.lru.Len() >= p.cfg.LRUCapacity {
				stopped = true
			}
		}
		if stopped {
			continue
		}
		for p.lru.Len() >= p.cfg.LRUCapacity {
			if err := p.evictOnePar(); err != nil {
				p.err = err
				return err
			}
		}
		cs := p.idx.index(c.addr)
		p.epoch++
		if !c.stolen && p.cfg.CleanPageDrop {
			p.clean[c.addr] = true
		}
		p.lru.Insert(c.addr)
		p.cells[cs].Prefetches++
		p.foldShard(cs, trace.EvPrefetch, c.addr, "")
		if c.stolen {
			p.post(cs, parItem{kind: piPendingInstall, addr: c.addr})
		} else {
			p.post(cs, parItem{kind: piReadInstall, addr: c.addr, slot: c.slot, rjob: rj})
		}
		c.installed = true
	}
	// Every slot and every stolen buffer is retired exactly once.
	for i := range cands {
		c := &cands[i]
		if c.installed {
			continue
		}
		if c.stolen {
			p.post(p.idx.index(c.addr), parItem{kind: piPendingDrop, addr: c.addr})
		} else {
			p.post(p.idx.index(c.addr), parItem{kind: piReadDrop, slot: c.slot, rjob: rj})
		}
	}
	return nil
}

// gatherPar mirrors gatherPrefetch: seen, non-resident, non-zero-marked
// pages following addr; candidates on the write list are stolen immediately
// (engine steals, not fault steals — they bump only the writeback counter).
func (p *Parallel) gatherPar(addr uint64, region *parRegion) []parCand {
	cands := p.candScratch[:0]
	for i := 1; i <= p.cfg.PrefetchPages; i++ {
		next := addr + uint64(i)*PageSize
		if next >= region.end {
			break
		}
		if !p.pages.seen(next) || p.lru.Contains(next) {
			continue
		}
		if p.zeroMark[next] {
			continue // zero-elided: any store copy is stale
		}
		c := parCand{addr: next, key: kvstore.MakeKey(next, region.part), slot: -1}
		if p.cfg.AsyncWrite {
			if _, ok := p.queued[next]; ok {
				p.removeQueued(next)
				p.wbSteals++
				p.foldShard(p.idx.index(next), trace.EvSteal, next, "")
				c.stolen = true
			}
		}
		cands = append(cands, c)
	}
	p.candScratch = cands
	return cands
}

// evictOnePar mirrors evictOne: globally oldest victim, clean-drop check,
// zero elision (which must inspect the victim's bytes — the one place the
// sequencer stalls on a shard), then write-back.
func (p *Parallel) evictOnePar() error {
	victim, ok := p.lru.Oldest()
	if !ok {
		return errors.New("core: eviction needed but LRU list empty")
	}
	p.lru.Remove(victim)
	vs := p.idx.index(victim)
	p.cells[vs].Evictions++
	clean := p.cfg.CleanPageDrop && p.clean[victim]
	if p.cfg.EvictWithCopy {
		p.foldShard(vs, trace.EvEvict, victim, "copy")
	} else {
		p.foldShard(vs, trace.EvEvict, victim, "remap")
	}
	p.epoch++

	if clean {
		delete(p.clean, victim)
		p.cells[vs].CleanDropped++
		p.foldShard(vs, trace.EvCleanDrop, victim, "")
		p.post(vs, parItem{kind: piEvictDrop, addr: victim})
		return nil
	}

	region := p.regionFor(victim)
	if region == nil {
		return fmt.Errorf("core: evicted page %#x has no region", victim)
	}
	key := kvstore.MakeKey(victim, region.part)

	if p.cfg.ElideZeroPages {
		if p.victimAllZero(victim, vs) {
			// NoteZero mirror: cancel any queued write, mark the bitmap.
			if _, ok := p.queued[victim]; ok {
				p.removeQueued(victim)
				p.post(vs, parItem{kind: piZeroCancel, addr: victim})
			}
			p.zeroMark[victim] = true
			p.wbZeroMarks++
			p.cells[vs].ZeroElided++
			p.foldShard(vs, trace.EvZeroElide, victim, "")
			p.post(vs, parItem{kind: piEvictDrop, addr: victim})
			return nil
		}
	}

	if p.cfg.AsyncWrite {
		// Enqueue mirror. Flushes are attributed to the victim that tipped
		// the batch, exactly as the serial delta-attribution does.
		flushesBefore := p.wbFlushes
		delete(p.zeroMark, victim)
		if _, ok := p.queued[victim]; ok {
			p.wbCoalesced++
			p.post(vs, parItem{kind: piEvictCoalesce, addr: victim})
		} else {
			p.wbNextSeq++
			p.queued[victim] = parQueued{seq: p.wbNextSeq, key: key}
			p.queuedCount++
			p.post(vs, parItem{kind: piEvictEnqueue, addr: victim})
			if p.queuedCount >= p.batchSize {
				if err := p.flushPar(); err != nil {
					return err
				}
			}
		}
		p.cells[vs].Flushes += p.wbFlushes - flushesBefore
		return nil
	}
	p.cells[vs].SyncWrites++
	seq := p.nextStoreSeq()
	p.storePresent[victim] = true
	p.post(vs, parItem{
		kind: piEvictSyncPut, addr: victim, key: key,
		storeSeq: seq, readsBefore: p.readsSeen,
	})
	return nil
}

// victimAllZero inspects the victim's current bytes for zero elision. The
// page's frame lives on its shard, so the sequencer waits for that shard to
// drain (ring head == tail ⇒ every emitted item has fully executed, and the
// ring atomics order the executor's frame writes before this read).
func (p *Parallel) victimAllZero(victim uint64, vs int) bool {
	p.waitShard(vs)
	f, ok := p.workers[vs].frames[victim]
	if !ok {
		p.failExec(fmt.Errorf("core: parallel evict of %#x found no frame", victim))
		return false
	}
	return f == nil || allZero(f)
}

// flushPar mirrors writeback.Flush: gather every queued entry in global
// stamp order into one MultiPut batch, executed by the last contributor.
func (p *Parallel) flushPar() error {
	if p.queuedCount == 0 {
		return nil
	}
	fj := p.acquireFlushJob()
	ents := p.flushScratch[:0]
	for addr, q := range p.queued {
		ents = append(ents, parFlushEnt{addr: addr, seq: q.seq, key: q.key})
	}
	p.flushScratch = ents
	// Insertion sort by stamp: map iteration order is random, the batch
	// order must not be.
	for i := 1; i < len(ents); i++ {
		e := ents[i]
		j := i - 1
		for j >= 0 && ents[j].seq > e.seq {
			ents[j+1] = ents[j]
			j--
		}
		ents[j+1] = e
	}
	n := len(ents)
	fj.n = n
	fj.storeSeq = p.nextStoreSeq()
	fj.readsBefore = p.readsSeen
	fj.remaining.Store(int32(n))
	for i := range ents {
		fj.keys[i] = ents[i].key
		delete(p.queued, ents[i].addr)
		p.storePresent[ents[i].addr] = true
	}
	p.queuedCount = 0
	p.wbFlushes++
	p.wbFlushedPages += uint64(n)
	p.flushSizes[n]++
	for i := range ents {
		p.post(p.idx.index(ents[i].addr), parItem{kind: piContribute, addr: ents[i].addr, slot: int32(i), fjob: fj})
	}
	return nil
}

func (p *Parallel) removeQueued(addr uint64) {
	delete(p.queued, addr)
	p.queuedCount--
}

func (p *Parallel) nextStoreSeq() uint64 {
	p.storeSeqCtr++
	return p.storeSeqCtr
}

func (p *Parallel) foldShard(s int, name string, page uint64, arg string) {
	p.digs[s] = FoldTraceEvent(p.digs[s], name, page, arg)
}

// post enqueues an item on shard s, backpressuring when the ring is full.
func (p *Parallel) post(s int, it parItem) {
	r := p.workers[s].ring
	spins := 0
	for !r.push(it) {
		spinYield(&spins)
	}
}

// waitShard blocks until shard s has executed everything emitted to it.
func (p *Parallel) waitShard(s int) {
	r := p.workers[s].ring
	spins := 0
	for r.head.Load() != r.tail.Load() {
		spinYield(&spins)
	}
}

func (p *Parallel) barrier() {
	for s := 0; s < p.shards; s++ {
		p.waitShard(s)
	}
}

func (p *Parallel) acquireFlushJob() *parFlushJob {
	fj := p.fjobs[p.fjobNext]
	p.fjobNext = (p.fjobNext + 1) % len(p.fjobs)
	spins := 0
	for fj.done.Load() != 1 {
		spinYield(&spins)
	}
	fj.done.Store(0)
	return fj
}

func (p *Parallel) acquireReadJob() *parReadJob {
	rj := p.rjobs[p.rjobNext]
	p.rjobNext = (p.rjobNext + 1) % len(p.rjobs)
	spins := 0
	for rj.consumers.Load() != 0 {
		spinYield(&spins)
	}
	for i := range rj.ready {
		rj.ready[i].Store(0)
	}
	rj.n = 0
	return rj
}

// ---------------------------------------------------------------------------
// Control surface (barrier-synchronised; mirrors controlplane.go).
// ---------------------------------------------------------------------------

// Discard mirrors Monitor.Discard. It is a full-barrier control operation:
// with every shard drained the sequencer may touch shard-owned maps
// directly, and the store Delete slots into the turnstile inline.
func (p *Parallel) Discard(addr uint64) {
	if p.closed || p.err != nil {
		return
	}
	p.drainIntakePar()
	addr &^= uint64(PageSize - 1)
	p.barrier()
	s := p.idx.index(addr)
	w := &p.workers[s]
	if p.lru.Remove(addr) {
		if f, ok := w.frames[addr]; ok {
			delete(w.frames, addr)
			p.frames.put(f)
		}
		p.epoch++
	}
	if p.pages.seen(addr) {
		p.pages.clearSeen(addr)
		if region := p.regionFor(addr); region != nil {
			_ = p.nextStoreSeq()
			_, _ = p.store.Delete(0, kvstore.MakeKey(addr, region.part))
			p.storeDone.v.Add(1)
			delete(p.storePresent, addr)
		}
	}
	if region := p.regionFor(addr); region != nil {
		if _, ok := p.queued[addr]; ok {
			p.removeQueued(addr)
			if buf, ok := w.pending[addr]; ok {
				delete(w.pending, addr)
				p.frames.put(buf)
			}
		}
		delete(p.zeroMark, addr)
	}
	delete(p.clean, addr)
}

// Resize mirrors Monitor.Resize: re-bound the LRU, evicting to fit.
func (p *Parallel) Resize(capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("%w: LRU capacity %d < 1", ErrBadConfig, capacity)
	}
	if p.err != nil {
		return p.err
	}
	p.drainIntakePar()
	p.cfg.LRUCapacity = capacity
	for p.lru.Len() > capacity {
		if err := p.evictOnePar(); err != nil {
			p.err = err
			return err
		}
	}
	return nil
}

// PostResize queues a capacity change from any goroutine; it is applied at
// the next operation boundary, exactly like the serial intake ring.
func (p *Parallel) PostResize(capacity int) bool {
	if capacity < 1 {
		return false
	}
	return p.intake.Post(command{kind: cmdResize, arg: capacity})
}

// PendingCommands reports queued, undrained control commands.
func (p *Parallel) PendingCommands() int { return p.intake.Len() }

func (p *Parallel) drainIntakePar() {
	for {
		c, ok := p.intake.Poll()
		if !ok {
			return
		}
		switch c.kind {
		case cmdResize:
			p.cfg.LRUCapacity = c.arg
			for p.lru.Len() > c.arg {
				if err := p.evictOnePar(); err != nil {
					p.err = err
					return
				}
			}
		}
	}
}

// Drain flushes the write list and waits for every shard to quiesce.
func (p *Parallel) Drain() error {
	if p.err != nil {
		return p.err
	}
	p.drainIntakePar()
	if err := p.flushPar(); err != nil {
		p.err = err
		return err
	}
	p.barrier()
	if err := p.takeExecErr(); err != nil {
		p.err = err
	}
	return p.err
}

// Close drains, stops the shard executors, and reports any sticky error.
// The engine must not be used after Close.
func (p *Parallel) Close() error {
	if p.closed {
		return p.err
	}
	_ = p.Drain()
	p.stop.Store(true)
	p.wg.Wait()
	p.closed = true
	if p.err == nil {
		p.err = p.takeExecErr()
	}
	return p.err
}

// ---------------------------------------------------------------------------
// Introspection (valid between operations; authoritative after Close).
// ---------------------------------------------------------------------------

// Stats merges the per-shard counter cells, exactly like Monitor.Stats.
// InFlightWaits is always zero: it counts a virtual-time race the parallel
// engine does not model.
func (p *Parallel) Stats() Stats {
	var total Stats
	for i := range p.cells {
		c := &p.cells[i]
		total.Faults += c.Faults
		total.FirstTouch += c.FirstTouch
		total.RemoteReads += c.RemoteReads
		total.Steals += c.Steals
		total.Evictions += c.Evictions
		total.SyncWrites += c.SyncWrites
		total.Flushes += c.Flushes
		total.Prefetches += c.Prefetches
		total.ZeroElided += c.ZeroElided
		total.CleanDropped += c.CleanDropped
		total.ZeroRefills += c.ZeroRefills
	}
	return total
}

// WritebackStats mirrors writeback.Snapshot. Waits is always zero (an
// in-flight wait is purely a virtual-time event).
func (p *Parallel) WritebackStats() WritebackStats {
	sizes := make(map[int]uint64, len(p.flushSizes))
	for k, v := range p.flushSizes {
		sizes[k] = v
	}
	return WritebackStats{
		Flushes:      p.wbFlushes,
		FlushedPages: p.wbFlushedPages,
		Steals:       p.wbSteals,
		Coalesced:    p.wbCoalesced,
		ZeroMarks:    p.wbZeroMarks,
		ZeroBitmap:   len(p.zeroMark),
		FlushSizes:   sizes,
	}
}

// ResidentAddrs returns the sorted resident set, as Monitor.ResidentAddrs.
func (p *Parallel) ResidentAddrs() []uint64 {
	addrs := p.lru.Addrs()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// ResidentPages reports the resident-page count.
func (p *Parallel) ResidentPages() int { return p.lru.Len() }

// FootprintLimit reports the current LRU capacity bound.
func (p *Parallel) FootprintLimit() int { return p.cfg.LRUCapacity }

// Epoch reports the mapping-change epoch (advances exactly as the serial
// monitor's: one tick per install, eviction, or discard drop).
func (p *Parallel) Epoch() uint64 { return p.epoch }

// WPFaults reports clean-tracking write-protection faults.
func (p *Parallel) WPFaults() uint64 { return p.wpFaults }

// WriteListLen reports pages awaiting flush.
func (p *Parallel) WriteListLen() int { return p.queuedCount }

// Shards reports the executor count.
func (p *Parallel) Shards() int { return p.shards }

// TraceDigests returns the per-shard logical trace digests (FoldTraceEvent
// over the FAULT/EVICT/WB_CLEAN_DROP/WB_ZERO_ELIDE/WB_STEAL/PREFETCH event
// stream, folded at the sequencer's decision points).
func (p *Parallel) TraceDigests() []uint64 {
	out := make([]uint64, len(p.digs))
	copy(out, p.digs)
	return out
}

// PageData exposes a resident page's bytes after Close (oracle use only):
// nil data with ok=true means the page is a copy-on-write zero page.
func (p *Parallel) PageData(addr uint64) (data []byte, ok bool) {
	if !p.closed {
		return nil, false
	}
	w := &p.workers[p.idx.index(addr)]
	f, ok := w.frames[addr]
	return f, ok
}

// Err reports the engine's sticky error.
func (p *Parallel) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.takeExecErr()
}

func (p *Parallel) failExec(err error) {
	p.execMu.Lock()
	if p.execErr == nil {
		p.execErr = err
		p.execFlag.Store(true)
	}
	p.execMu.Unlock()
}

func (p *Parallel) takeExecErr() error {
	if !p.execFlag.Load() {
		return nil
	}
	p.execMu.Lock()
	err := p.execErr
	p.execMu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// Shard executors: the physical side.
// ---------------------------------------------------------------------------

func (p *Parallel) runWorker(s int) {
	defer p.wg.Done()
	w := &p.workers[s]
	r := w.ring
	spins := 0
	for {
		it, ok := r.peek()
		if !ok {
			if p.stop.Load() {
				// Re-check after observing stop: emission strictly precedes
				// the stop store, so an empty ring now is empty for good.
				if _, ok := r.peek(); !ok {
					return
				}
				continue
			}
			spinYield(&spins)
			continue
		}
		spins = 0
		p.execItem(s, w, it)
		r.pop()
	}
}

// waitTurn blocks until every store operation stamped before seq completed.
func (p *Parallel) waitTurn(seq uint64) {
	spins := 0
	for p.storeDone.v.Load() != seq-1 {
		spinYield(&spins)
	}
}

// waitReads blocks until at least n read-class store operations have
// finished copying their results out (mutator-side of the read fence).
func (p *Parallel) waitReads(n uint64) {
	spins := 0
	for p.readsDone.v.Load() < n {
		spinYield(&spins)
	}
}

func waitFlag(f *atomic.Uint32) {
	spins := 0
	for f.Load() == 0 {
		spinYield(&spins)
	}
}

func (p *Parallel) deliver(s int, it *parItem, data []byte) {
	if p.onData != nil {
		p.onData(s, it.ticket, it.addr, data)
	}
}

func clearFrame(f []byte) { copy(f, parZeroFrame) }

// takeFrame removes addr's frame from the shard map, materialising a
// private zeroed frame for the copy-on-write sentinel.
func (p *Parallel) takeFrame(w *parWorker, addr uint64) []byte {
	f, ok := w.frames[addr]
	if !ok {
		p.failExec(fmt.Errorf("core: parallel shard lost frame for %#x", addr))
	}
	delete(w.frames, addr)
	if f == nil {
		f = p.frames.get()
		clearFrame(f)
	}
	return f
}

// takePending removes addr's pending write-list buffer from the shard map.
func (p *Parallel) takePending(w *parWorker, addr uint64) []byte {
	buf, ok := w.pending[addr]
	if !ok {
		p.failExec(fmt.Errorf("core: parallel shard lost pending buffer for %#x", addr))
		return nil
	}
	delete(w.pending, addr)
	return buf
}

// execItem runs one work item. Every path advances whatever counters or
// flags later items wait on (turns, read counts, job gates) even on error,
// so a failed run still drains instead of deadlocking; the first error is
// sticky and surfaces at the next sequencer boundary.
func (p *Parallel) execItem(s int, w *parWorker, it *parItem) {
	switch it.kind {
	case piAccessHit:
		f, ok := w.frames[it.addr]
		if !ok {
			p.failExec(fmt.Errorf("core: parallel hit on non-resident page %#x", it.addr))
			return
		}
		if f == nil {
			if it.write {
				// COW break: materialise a private zeroed frame.
				f = p.frames.get()
				clearFrame(f)
				w.frames[it.addr] = f
			} else {
				f = parZeroFrame
			}
		}
		p.deliver(s, it, f)

	case piZeroInstall:
		if it.write {
			f := p.frames.get()
			clearFrame(f)
			w.frames[it.addr] = f
			p.deliver(s, it, f)
		} else {
			w.frames[it.addr] = nil // COW zero sentinel
			p.deliver(s, it, parZeroFrame)
		}

	case piStealInstall:
		buf := p.takePending(w, it.addr)
		if buf == nil {
			buf = p.frames.get()
			clearFrame(buf)
		}
		w.frames[it.addr] = buf
		p.deliver(s, it, buf)

	case piPendingInstall:
		buf := p.takePending(w, it.addr)
		if buf == nil {
			buf = p.frames.get()
			clearFrame(buf)
		}
		w.frames[it.addr] = buf

	case piPendingDrop:
		p.frames.put(p.takePending(w, it.addr))

	case piRead:
		p.waitTurn(it.storeSeq)
		data, _, err := p.store.Get(0, it.key)
		p.storeDone.v.Add(1)
		f := p.frames.get()
		if err != nil {
			p.failExec(fmt.Errorf("core: read %v: %w", it.key, err))
			clearFrame(f)
		} else {
			copy(f, data)
		}
		p.readsDone.v.Add(1)
		w.frames[it.addr] = f
		p.deliver(s, it, f)

	case piSlotGet:
		p.waitTurn(it.storeSeq)
		data, _, err := p.store.Get(0, it.key)
		p.storeDone.v.Add(1)
		rj := it.rjob
		if err == nil {
			if !it.expect {
				p.failExec(fmt.Errorf("core: parallel read of %v present, predicted missing", it.key))
			}
			f := p.frames.get()
			copy(f, data)
			rj.pages[it.slot] = f
		} else {
			if it.expect {
				p.failExec(fmt.Errorf("core: parallel read %v: %w", it.key, err))
			}
			rj.pages[it.slot] = nil
		}
		p.readsDone.v.Add(1)
		rj.ready[it.slot].Store(1)

	case piMultiRead:
		rj := it.rjob
		p.waitTurn(it.storeSeq)
		pages, _, err := p.store.MultiGet(0, rj.keys[:rj.n])
		p.storeDone.v.Add(1)
		if err != nil {
			p.failExec(fmt.Errorf("core: batched read: %w", err))
		}
		for i := 0; i < rj.n; i++ {
			if err == nil && pages[i] != nil {
				f := p.frames.get()
				copy(f, pages[i])
				rj.pages[i] = f
			} else {
				rj.pages[i] = nil
			}
		}
		p.readsDone.v.Add(1)
		for i := 0; i < rj.n; i++ {
			rj.ready[i].Store(1)
		}

	case piReadConsume, piReadInstall:
		rj := it.rjob
		waitFlag(&rj.ready[it.slot])
		f := rj.pages[it.slot]
		rj.pages[it.slot] = nil
		if f == nil {
			p.failExec(fmt.Errorf("core: parallel install of %#x: predicted-present read returned nothing", it.addr))
			f = p.frames.get()
			clearFrame(f)
		}
		w.frames[it.addr] = f
		if it.kind == piReadConsume {
			p.deliver(s, it, f)
		}
		rj.consumers.Add(-1)

	case piReadDrop:
		rj := it.rjob
		waitFlag(&rj.ready[it.slot])
		p.frames.put(rj.pages[it.slot])
		rj.pages[it.slot] = nil
		rj.consumers.Add(-1)

	case piEvictDrop:
		f, ok := w.frames[it.addr]
		if !ok {
			p.failExec(fmt.Errorf("core: parallel evict-drop of %#x found no frame", it.addr))
			return
		}
		delete(w.frames, it.addr)
		p.frames.put(f)

	case piEvictEnqueue:
		w.pending[it.addr] = p.takeFrame(w, it.addr)

	case piEvictCoalesce:
		f := p.takeFrame(w, it.addr)
		p.frames.put(w.pending[it.addr])
		w.pending[it.addr] = f

	case piEvictSyncPut:
		f := p.takeFrame(w, it.addr)
		p.waitTurn(it.storeSeq)
		p.waitReads(it.readsBefore)
		_, err := p.store.Put(0, it.key, f)
		p.storeDone.v.Add(1)
		if err != nil {
			p.failExec(fmt.Errorf("core: write %v: %w", it.key, err))
		}
		p.frames.put(f)

	case piZeroCancel:
		p.frames.put(p.takePending(w, it.addr))

	case piContribute:
		fj := it.fjob
		fj.pages[it.slot] = p.takePending(w, it.addr)
		if fj.remaining.Add(-1) != 0 {
			return
		}
		// Last contributor: every slot is filled (the atomic decrement
		// chain orders the other shards' writes before this point).
		p.waitTurn(fj.storeSeq)
		p.waitReads(fj.readsBefore)
		_, err := p.store.MultiPut(0, fj.keys[:fj.n], fj.pages[:fj.n])
		p.storeDone.v.Add(1)
		if err != nil {
			p.failExec(fmt.Errorf("core: parallel flush: %w", err))
		}
		for i := 0; i < fj.n; i++ {
			p.frames.put(fj.pages[i])
			fj.pages[i] = nil
		}
		fj.done.Store(1)

	default:
		p.failExec(fmt.Errorf("core: unknown parallel work item %d", it.kind))
	}
}

// ---------------------------------------------------------------------------
// Trace digests.
// ---------------------------------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FoldTraceEvent folds one logical trace event into a running per-shard
// digest (FNV-1a over name, page, and arg, chained through dig). Both
// parity sides use it: the parallel sequencer folds at its decision points,
// and the oracle folds the single-thread monitor's captured trace events
// (FAULT, EVICT, WB_CLEAN_DROP, WB_ZERO_ELIDE, WB_STEAL, PREFETCH) by
// worker. Equal digests mean each shard saw the identical event sequence.
func FoldTraceEvent(dig uint64, name string, page uint64, arg string) uint64 {
	h := dig ^ fnvOffset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	h ^= 0x1F
	h *= fnvPrime64
	for i := uint(0); i < 64; i += 8 {
		h ^= (page >> i) & 0xFF
		h *= fnvPrime64
	}
	h ^= 0x1F
	h *= fnvPrime64
	for i := 0; i < len(arg); i++ {
		h ^= uint64(arg[i])
		h *= fnvPrime64
	}
	return h
}

// ShardOf maps a page address to its owning shard for a given shard count —
// the same mapping the monitor's worker dispatch, the LRU segments, the
// write-list queues, and the parallel executors all share. Parity oracles
// use it to attribute per-fault observations (delivered page bytes) to the
// shard whose digest they join.
func ShardOf(addr uint64, shards int) int {
	return newShardIndexer(shards).index(addr)
}

// ParityTraceEvents lists the logical trace events that enter parity
// digests — exactly the events whose order within a shard is defined by
// program order rather than virtual time.
func ParityTraceEvents() []string {
	return []string{
		trace.EvFault, trace.EvEvict, trace.EvCleanDrop,
		trace.EvZeroElide, trace.EvSteal, trace.EvPrefetch,
	}
}
