package bench

import (
	"fmt"

	"fluidmem"
)

// CyclicDrive is the multi-tenant host workload of the arbiter and market
// experiments and of fluidmemd's drive command. It allocates a "ws" segment
// of pages[i] pages in tenant i's guest and returns the drive over them.
// Each call issues ops more operations round-robin across the tenants:
// operation k, counted from the drive's first, touches page k mod spans[i]
// of tenant i's segment and writes on every third k. A caller shifts a
// working set between calls by passing other spans, each at most the
// tenant's segment size.
func CyclicDrive(tenants []*fluidmem.Tenant, pages []int) (func(ops int, spans []int) error, error) {
	base := make([]uint64, len(tenants))
	for i, t := range tenants {
		seg, err := t.Machine().Alloc("ws", uint64(pages[i])*fluidmem.PageSize)
		if err != nil {
			return nil, err
		}
		base[i] = seg.Addr(0)
	}
	next := 0
	return func(ops int, spans []int) error {
		for end := next + ops; next < end; next++ {
			for i, t := range tenants {
				addr := base[i] + uint64(next%spans[i])*fluidmem.PageSize
				if _, err := t.Touch(addr, next%3 == 0); err != nil {
					return fmt.Errorf("%s op %d: %w", t.ID(), next, err)
				}
			}
		}
		return nil
	}, nil
}
