package vm

import (
	"time"
)

// Balloon models the virtio-balloon driver, the guest-cooperative
// alternative for shrinking a VM's footprint (§VII, Table III). Inflating
// the balloon makes the guest free pages that the hypervisor then reclaims.
// Two properties from the paper are modelled: reclaim is slow (pages must be
// flushed before reuse), and the driver has a floor — it cannot shrink the
// footprint below ~64 MB (20480 pages), whereas FluidMem's LRU resize can go
// to near zero.
type Balloon struct {
	vm *VM
	// FloorPages is the smallest footprint the driver can reach.
	FloorPages int
	// ReclaimPerPage is the virtual-time cost of freeing one guest page
	// (flush + madvise round trip).
	ReclaimPerPage time.Duration
}

// DefaultBalloonFloorPages matches Table III's "Max VM balloon size" row:
// 20480 pages = 64 MB.
const DefaultBalloonFloorPages = 20480

// NewBalloon attaches a balloon driver to the VM.
func NewBalloon(v *VM) *Balloon {
	return &Balloon{
		vm:             v,
		FloorPages:     DefaultBalloonFloorPages,
		ReclaimPerPage: 18 * time.Microsecond,
	}
}

// InflateTo grows the balloon until the VM's resident footprint falls to
// target pages, the driver floor is reached, or no more guest pages are
// reclaimable. Kernel and mlocked pages are never balloonable. It returns
// the achieved footprint and the completion time.
func (b *Balloon) InflateTo(now time.Duration, target int) (int, time.Duration) {
	if target < b.FloorPages {
		target = b.FloorPages
	}
	// Free the coldest guest memory first: walk segments last-to-first
	// (workload heaps before OS), pages back-to-front.
	segs := b.vm.Segments()
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		if seg.Class == ClassKernel || seg.Class == ClassMlocked {
			continue
		}
		for p := seg.Pages() - 1; p >= 0; p-- {
			if b.vm.ResidentPages() <= target {
				return b.vm.ResidentPages(), now
			}
			addr := seg.Addr(uint64(p) * PageSize)
			b.vm.backing.Discard(addr)
			now += b.ReclaimPerPage
		}
	}
	return b.vm.ResidentPages(), now
}
