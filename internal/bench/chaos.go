package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/faulty"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/replicated"
)

// ChaosRow is one measured point of the degradation curve: the fault-latency
// distribution and the masking work done at one injected fault rate.
type ChaosRow struct {
	// Rate is the per-member transient-error (and spike) probability.
	Rate float64
	// Mean and P99 summarise application-observed fault latency.
	Mean, P99 time.Duration
	// Injected chaos, summed across the three members.
	TransientErrors, CrashRejects, Spikes uint64
	// Masking work: retries and backend failovers by the resilience layer,
	// read-path failovers and repairs by the replication layer.
	Retries, Failovers, ReadFailovers, ReadRepairs uint64
	// StallTime is virtual time parked in degraded mode.
	StallTime time.Duration
}

// ChaosResult is the degradation-curve experiment: FluidMem over a 3-way
// replicated RAMCloud whose members crash on a staggered schedule, at
// increasing transient-error rates. The paper's §III argues user-space
// paging makes replication and failure policy a provider customisation; this
// table quantifies what that policy buys — the guest keeps running with no
// hard errors while tail latency degrades smoothly instead of cliffing.
type ChaosResult struct {
	Rows []ChaosRow
}

// ChaosRates are the swept per-op fault probabilities.
func ChaosRates() []float64 { return []float64{0, 0.005, 0.01, 0.02} }

// RunChaos measures the degradation curve.
func RunChaos(opts Options) (*ChaosResult, error) {
	faults := 4000
	if opts.Quick {
		faults = 1000
	}
	res := &ChaosResult{}
	for _, rate := range ChaosRates() {
		row, err := runChaosRow(rate, faults, opts.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runChaosRow measures one fault rate: the working set is populated, then one
// fault window of the random read/write mix is measured, warm-up excluded as
// in Table II and cluster.
func runChaosRow(rate float64, faults int, seed uint64) (*ChaosRow, error) {
	m, members, rep, err := newChaosMachine(rate, seed)
	if err != nil {
		return nil, err
	}
	seg, pages, err := populate(m, windowWSSBytes)
	if err != nil {
		return nil, err
	}
	w, err := measurePhase(fmt.Sprintf("chaos rate %v", rate), m, seg, pages, faults, seed+99)
	if err != nil {
		return nil, err
	}
	row := &ChaosRow{Rate: rate, Mean: w.Mean, P99: w.P99}
	for _, f := range members {
		s := f.InjectStats()
		row.TransientErrors += s.TransientErrors
		row.CrashRejects += s.CrashRejects
		row.Spikes += s.Spikes
	}
	if rst, ok := m.Monitor().ResilienceStats(); ok {
		row.Retries = rst.Retries
		row.Failovers = rst.Failovers
		row.StallTime = rst.StallTime
	}
	rc := rep.Counters()
	row.ReadFailovers = rc.Failovers
	row.ReadRepairs = rc.ReadRepairs
	return row, nil
}

// newChaosMachine builds a chaos row's machine: the monitor, with the
// resilience policy, over a 3-way replicated RAMCloud whose members each
// inject rate transient errors and latency spikes and take a staggered crash.
// The members and the replicated store are returned for their counters.
func newChaosMachine(rate float64, seed uint64) (*fluidmem.Machine, []*faulty.Store, *replicated.Store, error) {
	var members []*faulty.Store
	var asStores []kvstore.Store
	for i := 0; i < 3; i++ {
		p := faulty.Uniform(rate, rate)
		// Staggered 2 ms crash windows: each member takes a turn down while
		// the other two carry the load.
		from := time.Duration(2+5*i) * time.Millisecond
		p.Crashes = []faulty.Window{{From: from, To: from + 2*time.Millisecond}}
		f := faulty.Wrap(ramcloud.New(ramcloud.DefaultParams(), seed+uint64(i)), p, seed+100+uint64(i))
		members = append(members, f)
		asStores = append(asStores, f)
	}
	rep, err := replicated.New(asStores...)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := newMonitorMachine(fluidmem.MachineConfig{
		SharedStore: rep, LocalMemory: windowLocalBytes, GuestMemory: windowGuestBytes, Seed: seed,
	}, withResilience)
	return m, members, rep, err
}

// Render prints the degradation curve as a text table.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	b.WriteString("Chaos: fault latency under injected failures (3-way replicated RAMCloud + resilience policy)\n")
	fmt.Fprintf(&b, "%-8s | %-10s %-10s | %-8s %-8s %-8s | %-8s %-9s %-9s %-8s | %s\n",
		"rate", "mean µs", "p99 µs", "errs", "crashes", "spikes",
		"retries", "failovers", "rd-fails", "repairs", "stall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s | %-10s %-10s | %-8d %-8d %-8d | %-8d %-9d %-9d %-8d | %v\n",
			fmt.Sprintf("%.1f%%", row.Rate*100),
			microseconds(row.Mean), microseconds(row.P99),
			row.TransientErrors, row.CrashRejects, row.Spikes,
			row.Retries, row.Failovers, row.ReadFailovers, row.ReadRepairs,
			row.StallTime.Round(time.Microsecond))
	}
	return b.String()
}
