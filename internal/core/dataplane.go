package core

// This file is the monitor's data plane: the per-fault hot path, from fault
// decode through worker dispatch, LRU touch, store read, and write-list
// append. Steady state it is allocation-free — see DESIGN.md §14 for the
// rules on what may allocate where. Slow-path work lives in controlplane.go
// and runs between faults, on the same goroutine.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
)

// workerOf is the fault-pipeline worker owning the page at addr: the horizon
// its fault queues behind and the worker id on its trace events.
func (m *Monitor) workerOf(addr uint64) int {
	return uffd.WorkerOf(addr, m.workers)
}

// record charges one profiled monitor operation to both the Table-I
// profiler and the tracer's per-(phase, worker) latency histogram, with the
// worker attributed by the page address that caused the work.
func (m *Monitor) record(op profOp, addr uint64, d time.Duration) {
	m.prof.Record(op, d)
	if m.tr != nil {
		m.tr.Observe(opNames[op], m.workerOf(addr), d)
	}
}

// Each fault path is named by its phase, "FAULT.<path>": no string is built.
const (
	pathFirstTouch  = trace.EvFault + ".first_touch"
	pathZeroRefill  = trace.EvFault + ".zero_refill"
	pathTier        = trace.EvFault + ".tier"
	pathSteal       = trace.EvFault + ".steal"
	pathRead        = trace.EvFault + ".read"
	pathBatchedRead = trace.EvFault + ".batched_read"
)

// recordFault accounts the end-to-end span of a resolved fault, resume minus
// event delivery. The monitor's own FAULT histogram always takes it. A tracer
// also gets the FAULT event, whose arg carries the resolution path (the phase
// past "FAULT."), and the per-path histogram beside the merged FAULT one, so
// the paper's Fig. 5-style breakdown falls straight out of a Snapshot.
func (m *Monitor) recordFault(ev uffd.Event, start, resume time.Duration, path string, err error) {
	if err != nil {
		return
	}
	m.faultHist.Add(resume - start)
	if m.tr == nil {
		return
	}
	w := m.workerOf(ev.Addr)
	m.tr.Emit(trace.EvFault, w, ev.Addr, start, resume-start, path[len(trace.EvFault)+1:])
	m.tr.Observe(path, w, resume-start)
}

// Touch implements vm.Backing: a guest access to addr. Resident pages return
// immediately; missing pages take the full monitor fault path.
func (m *Monitor) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	data, done, hit, err := m.fd.Access(now, addr, write)
	if err != nil {
		return nil, done, err
	}
	if hit {
		return data, done, nil
	}
	ev, ok := m.fd.NextEvent()
	if !ok {
		return nil, done, errors.New("core: fault raised but no event queued")
	}
	resolved, err := m.handleFault(done, ev)
	if err != nil {
		return nil, resolved, err
	}
	m.faultCost += resolved - now
	if m.faultLatencies != nil {
		m.faultLatencies(resolved - now)
	}
	// The vCPU retries the instruction; the page is now resident. A write
	// to a freshly zero-mapped page breaks COW here, exactly as in §V-A.
	data, done, hit, err = m.fd.Access(resolved, addr, write)
	if err != nil {
		return nil, done, err
	}
	if !hit {
		return nil, done, fmt.Errorf("core: page %#x still missing after fault resolution", addr)
	}
	return data, done, nil
}

// handleFault resolves one userfaultfd event, returning the virtual time at
// which the faulting vCPU resumes.
func (m *Monitor) handleFault(eventAt time.Duration, ev uffd.Event) (time.Duration, error) {
	m.stats.Faults++
	region := m.pages.region(ev.Addr)
	if region == nil {
		return eventAt, fmt.Errorf("%w: %d", ErrUnknownPID, ev.PID)
	}
	part := region.part
	m.hot.Fault(ev.Addr)
	// Handling starts when the fault's worker is free: a fault queues only
	// behind the worker that owns its page.
	w := m.workerOf(ev.Addr)
	t := eventAt
	if m.workerFree[w] > t {
		t = m.workerFree[w]
	}
	t += m.cfg.MonitorOps.EventDispatch.Sample(m.rng)

	// Seen-pages hash probe (the "pagetracker", §V-A).
	hashCost := m.cfg.MonitorOps.HashLookup.Sample(m.rng)
	m.record(opInsertPageHash, ev.Addr, hashCost)
	t += hashCost

	key := kvstore.MakeKey(ev.Addr, part)
	if !m.pages.seen(ev.Addr) {
		resumeAt, err := m.resolveFirstTouch(t, ev)
		m.recordFault(ev, eventAt, resumeAt, pathFirstTouch, err)
		return resumeAt, err
	}
	// Zero-bitmap hit: the page's latest eviction was elided, so any store
	// copy is stale — restore it with UFFDIO_ZEROPAGE, no store traffic.
	// Checked unconditionally (not gated on cfg.ElideZeroPages): a standing
	// mark means the store was never updated, so reading it would be wrong
	// even if the feature has since been toggled off.
	if m.wb.TakeZero(key) {
		resumeAt, err := m.resolveZeroRefill(t, ev)
		m.recordFault(ev, eventAt, resumeAt, pathZeroRefill, err)
		return resumeAt, err
	}
	resumeAt, path, err := m.resolveFromStore(t, ev, key)
	m.recordFault(ev, eventAt, resumeAt, path, err)
	return resumeAt, err
}

// resolveFirstTouch maps the zero page and wakes the guest; eviction, if
// needed, happens after the wake-up, off the critical path (Figure 2).
func (m *Monitor) resolveFirstTouch(t time.Duration, ev uffd.Event) (time.Duration, error) {
	m.stats.FirstTouch++
	m.pages.setSeen(ev.Addr)
	return m.zeroFill(t, ev)
}

// resolveZeroRefill resolves a re-fault of a zero-elided page: the eviction
// recorded the page's all-zero contents in the zero bitmap instead of
// writing the store, so the refill is a local UFFDIO_ZEROPAGE — the same
// fast path as first touch, counted separately.
func (m *Monitor) resolveZeroRefill(t time.Duration, ev uffd.Event) (time.Duration, error) {
	m.stats.ZeroRefills++
	return m.zeroFill(t, ev)
}

// zeroFill installs the zero page, wakes the guest, and runs asynchronous
// eviction afterwards — shared tail of first-touch and zero-refill faults.
func (m *Monitor) zeroFill(t time.Duration, ev uffd.Event) (time.Duration, error) {
	done, err := m.fd.ZeroPage(t, ev.Addr)
	if err != nil {
		return t, fmt.Errorf("core: zeropage %#x: %w", ev.Addr, err)
	}
	m.prof.Record(opUffdZeroPage, done-t)
	t = done

	lruCost := m.cfg.MonitorOps.LRUInsert.Sample(m.rng)
	m.record(opInsertLRUCache, ev.Addr, lruCost)
	t += lruCost
	m.lru.Insert(ev.Addr)

	t = m.fd.Wake(t, ev.Addr)
	resumeAt := t + m.cfg.MonitorOps.Resume.Sample(m.rng)

	// Asynchronous eviction (blue path in Figure 2): the monitor keeps
	// working after the guest resumes.
	mFree, err := m.makeRoom(t, m.cfg.LRUCapacity)
	if err != nil {
		return resumeAt, err
	}
	m.workerFree[m.workerOf(ev.Addr)] = mFree
	return resumeAt, nil
}

// resolveFromStore fetches a previously seen page: from the write list
// (steal), after an in-flight write, or from the key-value store, evicting
// to make room. path names the resolution route for the fault trace
// (pathTier, pathSteal, pathRead, pathBatchedRead).
func (m *Monitor) resolveFromStore(t time.Duration, ev uffd.Event, key kvstore.Key) (resumeAt time.Duration, path string, err error) {
	// Compressed-tier hit: decompress locally, no network round trip.
	if m.tier != nil {
		data, done, hit, err := m.tier.take(t, key)
		if err != nil {
			return t, pathTier, err
		}
		if hit {
			return m.adopt(done, ev, key, data, frameOwned, pathTier)
		}
	}
	// Steal shortcut: the page is sitting on the pending write list. The list
	// holds a page in every write mode — queued by an asynchronous eviction,
	// displaced from the compressed tier, or parked by a failed write-through.
	if m.cfg.StealEnabled {
		if data, owned, ok := m.wb.Steal(t, key); ok {
			m.stats.Steals++
			// The page adopts the stolen frame, or maps again the store
			// buffer whose re-put the steal cancelled.
			return m.adopt(t, ev, key, data, frameOf(owned), pathSteal)
		}
	} else if m.wb.Queued(key) {
		// Without stealing, a queued write must be flushed and completed
		// before the read can see the page — the two round trips the steal
		// optimisation shortcuts (§V-B).
		if err := m.wb.Flush(t); err != nil {
			return t, pathRead, fmt.Errorf("core: forced flush for %v: %w", key, err)
		}
	}
	// A write of this page is in flight: wait for it to land, then read.
	if doneAt, ok := m.wb.WaitFor(t, key); ok {
		m.stats.InFlightWaits++
		t = doneAt
	}

	m.stats.RemoteReads++
	if m.cfg.AsyncRead || m.cfg.PrefetchPages > 0 {
		return m.overlappedRead(t, ev, key)
	}
	if !m.storeLocal {
		t += m.cfg.MonitorOps.RPCOverhead.Sample(m.rng)
	}
	data, readDone, err := m.cfg.Store.Get(t, key)
	m.record(opReadPage, ev.Addr, readDone-t)
	if err != nil {
		return readDone, pathRead, fmt.Errorf("core: read %v: %w", key, err)
	}
	if m.take(ev, key, data) {
		// The store holds no bytes of the page any more: if making room or
		// the install fails, adopt puts it on the write list.
		return m.adopt(readDone, ev, key, data, frameTaken, pathRead)
	}
	rt, err := m.installAndWake(readDone, ev, data, frameShared)
	return rt, pathRead, err
}

// take reports whether the page a store read returned as data, for the fault
// ev on key, is the monitor's from now on: a write fault takes the store's
// buffer (kvstore.Reput's Take) where the monitor may (storeTake), so the
// write the guest retries lands in it with no copy. A window page of a
// readahead is not a demand page and takes nothing.
func (m *Monitor) take(ev uffd.Event, key kvstore.Key, data []byte) bool {
	return ev.Write && m.storeTake != nil && m.storeTake.Take(key, data)
}

// overlappedRead is the split read of §V-B. The top half issues the store
// read at once: StartGet for the demand page alone ("read"), or, with a
// readahead window configured, one amortised MultiGet carrying the demand key
// and the window ("batched_read"). The eviction's REMAP and all monitor
// bookkeeping (LRU insert, cache update) run while the network waits; only
// the copy and wake remain after the reply lands, and the window's pages are
// installed after the wake, while the guest is already running, occupying
// only the fault's worker. The PendingGet handle is a value on this frame —
// no allocation per split read.
func (m *Monitor) overlappedRead(t time.Duration, ev uffd.Event, key kvstore.Key) (resumeAt time.Duration, path string, err error) {
	issue := t
	if !m.storeLocal {
		issue += m.cfg.MonitorOps.AsyncIssue.Sample(m.rng)
	}
	var (
		pending kvstore.PendingGet
		window  []prefetchCandidate
	)
	path = pathRead
	if m.cfg.PrefetchPages > 0 {
		path = pathBatchedRead
		pending, window = m.startWindowGet(issue, ev.Addr, key)
	} else {
		pending = m.cfg.Store.StartGet(issue, key)
	}
	overlap := issue
	for m.lru.Len() >= m.cfg.LRUCapacity {
		victim, _ := m.lru.Oldest()
		if overlap, err = m.evict(overlap, victim, true, false); err != nil {
			return t, path, err
		}
		overlap += m.cfg.MonitorOps.EvictFinish.Sample(m.rng)
	}
	updCost := m.cfg.MonitorOps.CacheUpdate.Sample(m.rng)
	m.record(opUpdatePageCache, ev.Addr, updCost)
	overlap += updCost
	lruCost := m.cfg.MonitorOps.LRUInsert.Sample(m.rng)
	m.record(opInsertLRUCache, ev.Addr, lruCost)
	overlap += lruCost
	m.lru.Insert(ev.Addr)

	// Bottom half. A failed read or copy takes the page back off the LRU
	// list: an entry there must be a page in the VM. A page whose buffer the
	// fault took and could not install goes on the write list, as adopt's
	// do: the store holds no bytes of it any more.
	data, readDone, err := pending.Wait(overlap)
	m.record(opReadPage, ev.Addr, pending.ReadyAt-issue)
	if err != nil {
		m.lru.Remove(ev.Addr)
		return readDone, path, fmt.Errorf("core: read %v: %w", key, err)
	}
	kind := frameShared
	if m.take(ev, key, data) {
		kind = frameTaken
	}
	copied, done, err := m.install(readDone, ev.Addr, data, kind)
	if err != nil {
		m.lru.Remove(ev.Addr)
		if kind == frameTaken {
			_, _ = m.enqueue(readDone, key, data, true)
		}
		return readDone, path, fmt.Errorf("core: copy into %#x: %w", ev.Addr, err)
	}
	m.prof.Record(opUffdCopy, copied-readDone)
	t = m.fd.Wake(done, ev.Addr)
	resumeAt = t + m.cfg.MonitorOps.Resume.Sample(m.rng)
	for _, c := range window {
		var stop bool
		if t, stop = m.installPrefetched(t, ev.Addr, c); stop {
			break
		}
	}
	m.workerFree[m.workerOf(ev.Addr)] = t
	return resumeAt, path, nil
}

// installAndWake makes room for the faulting page, installs data in it (see
// install for kind), re-inserts it in the LRU list, and wakes the guest.
func (m *Monitor) installAndWake(t time.Duration, ev uffd.Event, data []byte, kind frameKind) (time.Duration, error) {
	t, err := m.makeRoom(t, m.cfg.LRUCapacity-1)
	if err != nil {
		return t, err
	}
	updCost := m.cfg.MonitorOps.CacheUpdate.Sample(m.rng)
	m.record(opUpdatePageCache, ev.Addr, updCost)
	t += updCost

	copied, done, err := m.install(t, ev.Addr, data, kind)
	if err != nil {
		return t, fmt.Errorf("core: copy into %#x: %w", ev.Addr, err)
	}
	m.prof.Record(opUffdCopy, copied-t)
	t = done

	lruCost := m.cfg.MonitorOps.LRUInsert.Sample(m.rng)
	m.record(opInsertLRUCache, ev.Addr, lruCost)
	t += lruCost
	m.lru.Insert(ev.Addr)

	t = m.fd.Wake(t, ev.Addr)
	m.workerFree[m.workerOf(ev.Addr)] = t
	return t + m.cfg.MonitorOps.Resume.Sample(m.rng), nil
}

// adopt installs a page taken out of the compressed tier (the buffer it was
// decompressed into), off the write list, or from the store (a taken read
// buffer): data is its only current copy, so if making room or the copy
// fails, it goes back on the write list.
func (m *Monitor) adopt(t time.Duration, ev uffd.Event, key kvstore.Key, data []byte, kind frameKind, path string) (time.Duration, string, error) {
	t, err := m.installAndWake(t, ev, data, kind)
	if err != nil {
		_, _ = m.enqueue(t, key, data, kind != frameShared)
	}
	return t, path, err
}

// makeRoom evicts the oldest pages, whichever workers own them, until at
// most limit are resident.
func (m *Monitor) makeRoom(t time.Duration, limit int) (time.Duration, error) {
	var err error
	for m.lru.Len() > limit && err == nil {
		victim, _ := m.lru.Oldest()
		t, err = m.evict(t, victim, false, false)
	}
	return t, err
}

// evict pushes the resident page victim out of the VM and toward the store,
// its trace events the victim's worker's, its time the caller's. A page
// leaving with its VM (migration export) skips the compressed tier and the
// ghost list, so it displaces no other VM's pooled pages or ghost entries.
//
// Frame lifecycle: the remapped frame moves here as itself, and onward with
// its ownership — to the write list (whose flush hands it to the store), or,
// on the zero-elide, tier-accepted and written-through paths (Put copies),
// back to the pool if it is the monitor's. A page whose write-through fails
// goes to the write list too. A page the guest never wrote since
// a store-backed install comes out not owned: it is the store's own read
// buffer of the key, unchanged, which the write list passes back to a store
// that takes it (kvstore.Reput) and copies first for one that does not. It
// never reaches the pool. A page whose write fault took the store's read
// buffer (take) comes out owned, like any written page: that buffer is the
// page's only copy, and the write list's flush hands it back to the store.
// A clean page moves no frame at all: RemapDrop forgets the store buffer it
// shares (a taken page is never clean). A zero-COW page comes out as nil,
// which zero elision takes unscanned and anything else gets as a frame of
// zeroes.
func (m *Monitor) evict(t time.Duration, victim uint64, interleaved, leaving bool) (time.Duration, error) {
	key, _ := m.lru.Remove(victim)
	if !leaving {
		m.hot.Evict(victim)
	}
	m.stats.Evictions++
	evictStart := t

	// Dirty check (must precede the remap, which destroys the mapping): a
	// page still write-protected since its store-backed install was never
	// written, so the store copy is current and no write is needed.
	clean := m.cfg.CleanPageDrop && m.fd.PageClean(victim)

	var (
		data  []byte
		owned = true
		err   error
	)
	if m.cfg.EvictWithCopy {
		// Ablation A3: copy the page out, then zap the mapping. Costs a
		// page copy but no TLB shootdown IPI. The copy lands in a pooled
		// frame; Drop recycles the original in-VM frame.
		start := t
		var mapped []byte
		mapped, t, _, err = m.fd.Access(t, victim, false)
		if err != nil {
			return t, fmt.Errorf("core: evict-copy read %#x: %w", victim, err)
		}
		data = m.fd.GetFrame()
		copy(data, mapped)
		t += m.cfg.UFFD.Copy.Sample(m.rng)
		m.fd.Drop(victim)
		m.prof.Record(opUffdRemap, t-start)
		m.tr.Emit(trace.EvEvict, m.workerOf(victim), victim, evictStart, t-evictStart, "copy")
	} else {
		var done time.Duration
		if clean {
			done, err = m.fd.RemapDrop(t, victim, interleaved)
		} else {
			owned = !m.fd.PageShared(victim)
			data, done, err = m.fd.Remap(t, victim, interleaved)
		}
		if err != nil {
			return t, fmt.Errorf("core: remap %#x: %w", victim, err)
		}
		m.prof.Record(opUffdRemap, done-t)
		t = done
		m.tr.Emit(trace.EvEvict, m.workerOf(victim), victim, evictStart, t-evictStart, "remap")
	}

	if clean {
		// Clean drop: the store copy is current and the page is gone — the
		// eviction is done, with no write, no tier offer, no list traffic.
		// Only ablation A3 holds bytes here, its staging copy.
		m.stats.CleanDropped++
		m.tr.Emit(trace.EvCleanDrop, m.workerOf(victim), victim, t, 0, "")
		m.fd.Recycle(data)
		return t, nil
	}

	if m.cfg.ElideZeroPages {
		scanCost := m.cfg.MonitorOps.ZeroScan.Sample(m.rng)
		m.record(opZeroScan, victim, scanCost)
		t += scanCost
		if data == nil || allZero(data) {
			// Zero elision: record the mark instead of shipping 4 KiB of
			// zeroes; the re-fault resolves with UFFDIO_ZEROPAGE. A zero-COW
			// victim is known zero, so only the scan's cost is charged.
			m.wb.NoteZero(key)
			m.stats.ZeroElided++
			m.tr.Emit(trace.EvZeroElide, m.workerOf(victim), victim, t, 0, "")
			if owned {
				m.fd.Recycle(data)
			}
			return t, nil
		}
	}
	if data == nil {
		data = m.fd.PrivateCopy(nil)
	}

	if m.tier != nil && !leaving {
		done, accepted, displaced, terr := m.tier.offer(t, key, data)
		if terr != nil {
			return t, terr
		}
		t = done
		for _, d := range displaced {
			if t, err = m.enqueue(t, d.key, d.data, true); err != nil {
				return t, err
			}
		}
		if accepted {
			// The tier kept a compressed copy; the raw frame is free.
			if owned {
				m.fd.Recycle(data)
			}
			return t, nil
		}
	}

	if m.cfg.AsyncWrite {
		return m.enqueue(t, key, data, owned)
	}
	m.stats.SyncWrites++
	if !m.storeLocal {
		t += m.cfg.MonitorOps.RPCOverhead.Sample(m.rng)
	}
	done, err := m.cfg.Store.Put(t, key, data)
	m.record(opWritePage, victim, done-t)
	if err != nil {
		// A failed write-through parks the page on the write list, for a
		// refault or a drain; a flush failing in the enqueue leaves it queued.
		_, _ = m.enqueue(done, key, data, owned)
		return done, fmt.Errorf("core: write %v: %w", key, err)
	}
	// Put copied the bytes: the frame, if it is ours, is free again.
	if owned {
		m.fd.Recycle(data)
	}
	return done, nil
}

// enqueue appends an evicted page to the write list. A store buffer the store
// cannot take back (no kvstore.Reput) is copied first.
func (m *Monitor) enqueue(t time.Duration, key kvstore.Key, data []byte, owned bool) (time.Duration, error) {
	if !owned && !m.storeReput {
		data, owned = m.fd.PrivateCopy(data), true
	}
	flushesBefore := m.wb.flushes
	t, err := m.wb.Enqueue(t, key, data, owned)
	m.stats.Flushes += m.wb.flushes - flushesBefore
	if err != nil {
		return t, fmt.Errorf("core: enqueue write %v: %w", key, err)
	}
	return t, nil
}

// frameKind says whose buffer a page is installed from.
type frameKind uint8

const (
	// frameOwned is the monitor's own frame: a stolen one, a tier hit's.
	frameOwned frameKind = iota
	// frameShared is a store's read buffer of the page's key, unchanged: a
	// store read's, or one a steal took back before its re-put reached the
	// store.
	frameShared
	// frameTaken is a store's read buffer that a write fault took (take):
	// the monitor's now, and the store holds no bytes of the page.
	frameTaken
)

// frameOf is the kind of a buffer the write list hands back with owned.
func frameOf(owned bool) frameKind {
	if owned {
		return frameOwned
	}
	return frameShared
}

// install maps data at addr with UFFDIO_COPY, returning when the copy is
// done and when the install is. A buffer the monitor owns (frameOwned,
// frameTaken) becomes the page's frame. A shared one is mapped shared, copied
// only by the guest's first write: the store keeps those bytes until the key
// is next written or deleted, and that happens only after the page has left
// the VM. Under CleanPageDrop a page installed from the store (shared or
// taken) is also write-protected (UFFDIO_COPY_MODE_WP), arming the
// clean-drop eviction path: the first guest write trips a (simulated) WP
// fault that clears the protection, so a shared page still protected at
// eviction time is provably unwritten. A taken page is written at once, by
// the access that faulted; it is protected all the same, so that write draws
// the WP fault's sample as it would on a shared page, and it is never
// dropped clean (uffd.FD.PageClean asks for a shared page). The caller
// records the copy's profile sample; the write-protect's is recorded here.
// Without CleanPageDrop nothing is protected, so feature-off runs draw the
// exact same RNG sequence as before.
func (m *Monitor) install(t time.Duration, addr uint64, data []byte, kind frameKind) (copied, done time.Duration, err error) {
	wp := kind != frameOwned && m.cfg.CleanPageDrop
	if copied, done, err = m.fd.Install(t, addr, data, kind != frameShared, wp); err == nil && wp {
		m.prof.Record(opUffdWriteProtect, done-copied)
	}
	return copied, done, err
}

// allZero reports whether a page is entirely zero bytes, eight at a time.
func allZero(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
