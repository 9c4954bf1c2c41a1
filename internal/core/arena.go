package core

import "fluidmem/internal/kvstore"

// dataArena holds the data plane's pre-sized scratch buffers. Every slice
// here is reused across faults: a resolver takes it with [:0] (or
// re-lengths it), fills it, and stores the possibly-grown slice back, so
// after a short warm-up the fault hot path performs no heap allocation.
// Nothing in the arena survives a fault — every buffer is dead once the
// fault that filled it resolves, which is what makes the reuse safe.
type dataArena struct {
	// keys is startWindowGet's MultiGet request.
	keys []kvstore.Key
	// cands is gatherPrefetch's candidate list.
	cands []prefetchCandidate
}
