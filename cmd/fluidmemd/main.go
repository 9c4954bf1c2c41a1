// Command fluidmemd is a demonstration of FluidMem's operator surface: it
// boots a VM against a chosen backend and then executes a scripted sequence
// of footprint operations (resize, hotplug, service probes), printing the
// monitor's view after each step — the "cloud provider console" the paper's
// §III envisions.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/faulty"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/replicated"
	"fluidmem/internal/loadgen"
	"fluidmem/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluidmemd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fluidmemd", flag.ContinueOnError)
	var (
		backend = fs.String("backend", "ramcloud", "dram | ramcloud | memcached | cluster")
		localMB = fs.Int("local", 64, "local DRAM budget in MB")
		guestMB = fs.Int("guest", 256, "guest memory in MB")
		script  = fs.String("script", "status;resize 180;probe;resize 80;probe;resize 32768;probe;status",
			"semicolon-separated commands: status | resize <pages> | hotplug <mb> | probe | tick <n> | health | hist")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		replicas   = fs.Int("replicas", 1, "replication factor: backend members (replicated wrapper), or copies per partition with -backend cluster")
		storeNodes = fs.Int("store-nodes", 3, "store node count for -backend cluster")
		failSched  = fs.String("failure-schedule", "", "comma-separated cluster failure events fired as virtual time passes, e.g. 'crash:node2@30s,drain:node1@60s' (ops: crash | drain | partition | heal | recover | add; -backend cluster only)")
		chaos      = fs.Float64("chaos", 0, "per-member transient error+spike rate (0 disables injection); enables the resilience policy")
		workers    = fs.Int("workers", 1, "fault-pipeline width (>= 1): a fault waits only for the worker that owns its page; widths change timing, never behaviour")
		elideZero  = fs.Bool("elide-zero", false, "elide all-zero evicted pages into the zero bitmap (re-faults resolve with UFFDIO_ZEROPAGE, no store traffic)")
		cleanDrop  = fs.Bool("clean-drop", false, "write-protect store-backed installs and drop still-clean eviction victims without a store write")
		traceOut   = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the run to this file; also enables the hist command")
		vms        = fs.Int("vms", 1, "tenant count: > 1 runs a multi-tenant host sharing the local budget (one VM hot, the rest cold) instead of the scripted single machine")
		arb        = fs.Bool("arbiter", false, "with -vms > 1: rebalance the shared budget each epoch from the ghost-LRU miss-ratio curves (default keeps the static equal split)")
		mkt        = fs.Bool("market", false, "with -vms > 1: run the Memtrade-style marketplace — curve-priced leases with p99-SLO claw-back — instead of the greedy arbiter (mutually exclusive with -arbiter); host console commands: status | slo | market")
		scenario   = fs.String("scenario", "", "replay a named open-loop traffic scenario (diurnal | flashcrowd | churn) against a multi-tenant host and print the offered-load/goodput report; -arbiter/-market pick the planner, -rate-scale sweeps the offered load")
		rateScale  = fs.Float64("rate-scale", 1, "with -scenario: multiply every tenant's offered-load curve (the knee-of-curve sweep axis)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *scenario != "" {
		if err := rejectUnsupported(fs, "the -scenario replay (it builds its own tenant population on the DRAM store)",
			"scenario", "rate-scale", "arbiter", "market", "workers", "seed"); err != nil {
			return err
		}
		if *arb && *mkt {
			return fmt.Errorf("-arbiter and -market are mutually exclusive planners")
		}
		planner := loadgen.PlannerStatic
		switch {
		case *arb:
			planner = loadgen.PlannerArbiter
		case *mkt:
			planner = loadgen.PlannerMarket
		}
		return runScenario(*scenario, planner, *rateScale, *workers, *seed)
	}
	if *vms > 1 {
		if err := rejectUnsupported(fs, "the multi-tenant host console (-vms > 1)",
			"vms", "arbiter", "market", "backend", "local", "seed", "script"); err != nil {
			return err
		}
		if *arb && *mkt {
			return fmt.Errorf("-arbiter and -market are mutually exclusive planners")
		}
		planner := ""
		switch {
		case *arb:
			planner = "arbiter"
		case *mkt:
			planner = "market"
		}
		// With -vms the script speaks the host console (status | slo |
		// market); the single-machine default script would not parse.
		hostScript := "status;slo;market"
		if scriptFlagSet(fs) {
			hostScript = *script
		}
		return runHost(*backend, *vms, planner, *localMB, *seed, hostScript)
	}
	// -arbiter and -market are absent: a single tenant has nothing to
	// rebalance and nobody to trade with.
	if err := rejectUnsupported(fs, "the single-machine console (planners need -vms > 1, -rate-scale needs -scenario)",
		"backend", "local", "guest", "script", "seed", "replicas", "store-nodes", "failure-schedule",
		"chaos", "workers", "elide-zero", "clean-drop", "trace", "vms"); err != nil {
		return err
	}
	mcfg := fluidmem.MachineConfig{
		Mode:        fluidmem.ModeFluidMem,
		Backend:     fluidmem.Backend(*backend),
		LocalMemory: uint64(*localMB) << 20,
		GuestMemory: uint64(*guestMB) << 20,
		BootOS:      true,
		Seed:        *seed,
	}
	if *traceOut != "" {
		mcfg.Tracer = fluidmem.NewTracer(true)
	}
	schedule, err := parseFailureSchedule(*failSched)
	if err != nil {
		return err
	}
	if len(schedule) > 0 && *backend != "cluster" {
		return fmt.Errorf("-failure-schedule needs -backend cluster")
	}
	if *backend == "cluster" {
		// The cluster backend brings its own replication; the monitor gets
		// the resilience policy so membership changes (stale epochs, crash
		// windows) are retried instead of surfacing to the guest.
		mcfg.StoreNodes = *storeNodes
		if *replicas > 1 {
			mcfg.StoreReplicas = *replicas
		}
		mon := core.DefaultConfig(nil, int(mcfg.LocalMemory/fluidmem.PageSize))
		mon.Workers = *workers
		mon.ElideZeroPages = *elideZero
		mon.CleanPageDrop = *cleanDrop
		policy := resilience.DefaultPolicy()
		mon.Resilience = &policy
		mcfg.Monitor = &mon
	} else if *replicas > 1 || *chaos > 0 || *workers > 1 || *elideZero || *cleanDrop {
		store, err := buildStore(*backend, *replicas, *chaos, *seed)
		if err != nil {
			return err
		}
		mon := core.DefaultConfig(nil, int(mcfg.LocalMemory/fluidmem.PageSize))
		mon.Workers = *workers
		mon.ElideZeroPages = *elideZero
		mon.CleanPageDrop = *cleanDrop
		if *replicas > 1 || *chaos > 0 {
			policy := resilience.DefaultPolicy()
			mon.Resilience = &policy
		}
		mcfg.SharedStore = store
		mcfg.Monitor = &mon
	}
	m, err := fluidmem.NewMachine(mcfg)
	if err != nil {
		return err
	}
	fmt.Printf("fluidmemd: booted %d MB guest on %s, local budget %d MB, resident %d pages (%.1f MB), boot took %v\n",
		*guestMB, *backend, *localMB, m.ResidentPages(), float64(m.ResidentPages())*4/1024, m.Now())

	for _, raw := range strings.Split(*script, ";") {
		fields := strings.Fields(strings.TrimSpace(raw))
		if len(fields) == 0 {
			continue
		}
		if schedule, err = fireDue(m, schedule, false); err != nil {
			return err
		}
		fmt.Printf("\n> %s\n", strings.Join(fields, " "))
		if err := execute(m, fields); err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
	}
	if _, err := fireDue(m, schedule, true); err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := m.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote Chrome trace to %s (%d events)\n", *traceOut, len(m.Tracer().Events()))
	}
	return nil
}

// runScenario is the -scenario console: it replays a named open-loop traffic
// scenario (internal/loadgen, DESIGN.md §17) against a live multi-tenant host
// and prints the offered-load/goodput/sojourn report. Everything is virtual
// time, so the same seed prints the same report on every machine.
func runScenario(name string, planner loadgen.Planner, scale float64, workers int, seed uint64) error {
	scen, err := loadgen.NamedScenario(name)
	if err != nil {
		return err
	}
	fmt.Printf("fluidmemd: open-loop scenario %q — %d tenants on %d shared pages, planner %s, rate x%g\n",
		name, len(scen.Tenants), scen.TotalLocalPages, planner, scale)
	rep, err := loadgen.Run(loadgen.Config{
		Scenario:  scen,
		Planner:   planner,
		Workers:   workers,
		Seed:      seed,
		RateScale: scale,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if rep.SojournP99 > scen.P99Target {
		fmt.Printf("p99 sojourn %v EXCEEDS the %v target: this offered load is past the knee\n",
			rep.SojournP99.Round(time.Microsecond), scen.P99Target)
	} else {
		fmt.Printf("p99 sojourn %v meets the %v target: below the knee (try a larger -rate-scale)\n",
			rep.SojournP99.Round(time.Microsecond), scen.P99Target)
	}
	return nil
}

// rejectUnsupported returns an error naming the first flag given on the
// command line that the selected console mode does not honour. Each mode
// passes the flags it reads; anything else would be dropped silently (a
// trace never written, a failure schedule never fired).
func rejectUnsupported(fs *flag.FlagSet, mode string, honoured ...string) error {
	ok := make(map[string]bool, len(honoured))
	for _, name := range honoured {
		ok[name] = true
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !ok[f.Name] {
			err = fmt.Errorf("-%s is not supported by %s", f.Name, mode)
		}
	})
	return err
}

// scriptFlagSet reports whether -script was given explicitly.
func scriptFlagSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "script" {
			set = true
		}
	})
	return set
}

// runHost is the multi-tenant console: N named tenants share one store and
// one local DRAM budget. Tenant "hot" cycles a working set 25% past its
// equal split (steep miss-ratio curve); the "coldN" tenants cycle a quarter
// of theirs (flat curves) under a tight p99 fault-latency SLO. With
// -arbiter the host reads the ghost-LRU curves each epoch and greedily
// moves slab grants toward the steep curve — SLO-blind. With -market the
// same curves price leases in the marketplace, and a cold tenant whose
// donations push its window p99 past its target gets its leases clawed
// back. Without either, the equal split is frozen but SLO windows still
// run. After the drive, the script runs against the host console: status |
// slo | market.
func runHost(backend string, vms int, planner string, localMB int, seed uint64, script string) error {
	const epochOps, rounds = 512, 8
	totalPages := (localMB << 20) / int(fluidmem.PageSize)
	equal := totalPages / vms
	spans := make([]int, vms)
	spans[0] = equal + equal/4
	for i := 1; i < vms; i++ {
		spans[i] = equal / 4
		if spans[i] < 1 {
			spans[i] = 1
		}
	}
	specs := make([]fluidmem.TenantSpec, vms)
	for i := range specs {
		mc := fluidmem.MachineConfig{
			Backend:     fluidmem.Backend(backend),
			GuestMemory: uint64(totalPages) * fluidmem.PageSize,
		}
		if i == 0 {
			specs[i] = fluidmem.TenantSpec{ID: "hot", VM: mc}
			continue
		}
		// The cold tenants are the marketplace's protected class: donors
		// with a p99 target below any store's fault latency, so donation-
		// induced faulting violates the SLO and triggers claw-back.
		specs[i] = fluidmem.TenantSpec{
			ID:     fmt.Sprintf("cold%d", i),
			VM:     mc,
			Policy: fluidmem.TenantPolicy{SLO: time.Microsecond},
		}
	}
	hc := fluidmem.HostConfig{Tenants: specs, TotalLocalPages: totalPages, Seed: seed, EpochOps: epochOps}
	mode := "static equal split"
	switch planner {
	case "arbiter":
		hc.Arbiter = &fluidmem.ArbiterPolicy{}
		mode = "arbiter rebalancing"
	case "market":
		hc.Market = &fluidmem.MarketPolicy{}
		mode = "marketplace (SLO claw-back)"
	}
	h, err := fluidmem.NewHost(hc)
	if err != nil {
		return err
	}
	fmt.Printf("fluidmemd: host with %d tenants on %s, %d shared pages (%d MB), %s\n",
		vms, backend, totalPages, localMB, mode)

	tenants := h.Tenants()
	segs := make([]uint64, vms)
	for i, t := range tenants {
		seg, err := t.Machine().Alloc("ws", uint64(spans[i])*fluidmem.PageSize)
		if err != nil {
			return err
		}
		segs[i] = seg.Addr(0)
	}
	for r := 0; r < rounds; r++ {
		for op := 0; op < epochOps; op++ {
			for i, t := range tenants {
				addr := segs[i] + uint64((r*epochOps+op)%spans[i])*fluidmem.PageSize
				if _, err := t.Touch(addr, op%3 == 0); err != nil {
					return fmt.Errorf("%s: %w", t.ID(), err)
				}
			}
		}
		st := h.Stats()
		shares, wss := make([]int, vms), make([]int, vms)
		for i, ts := range st.Tenants {
			shares[i], wss[i] = ts.SharePages, ts.WSSPages
		}
		fmt.Printf("epoch %d: t=%v shares=%v wss=%v\n", r+1, st.Now.Round(time.Microsecond), shares, wss)
	}
	if err := h.Drain(); err != nil {
		return err
	}

	for _, raw := range strings.Split(script, ";") {
		fields := strings.Fields(strings.TrimSpace(raw))
		if len(fields) == 0 {
			continue
		}
		fmt.Printf("\n> %s\n", strings.Join(fields, " "))
		if err := executeHost(h, spans, fields); err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
	}
	return nil
}

// executeHost runs one host-console command: the multi-tenant analogues of
// the single-machine status/health surface.
func executeHost(h *fluidmem.Host, spans []int, fields []string) error {
	st := h.Stats()
	switch fields[0] {
	case "status":
		fmt.Printf("  %-8s %6s %7s %5s %10s %11s %10s\n", "tenant", "span", "share", "wss", "faults", "ghost-hits", "evictions")
		for i, ts := range st.Tenants {
			// A host tenant always has a monitor and a ghost-LRU estimator.
			fmt.Printf("  %-8s %6d %7d %5d %10d %11d %10d\n",
				ts.ID, spans[i], ts.SharePages, ts.WSSPages, ts.Faults, ts.VM.Hotset.GhostHits, ts.VM.Monitor.Evictions)
		}
		if a := st.Arbiter; a.Epochs > 0 {
			fmt.Printf("  planner: epochs=%d moves=%d granted=%d donated=%d predicted-savings=%d realized-savings=%d\n",
				a.Epochs, a.Moves, a.GrantedPages, a.DonatedPages, a.PredictedSavings, a.RealizedSavings)
		}
	case "slo":
		fmt.Printf("  %-8s %10s %8s %10s %12s %12s\n", "tenant", "target", "windows", "violations", "last-p99", "last-faults")
		for _, ts := range st.Tenants {
			target := "-"
			if ts.Policy.SLO > 0 {
				target = ts.Policy.SLO.String()
			}
			fmt.Printf("  %-8s %10s %8d %10d %12v %12d\n",
				ts.ID, target, ts.SLO.Windows, ts.SLO.Violations, ts.SLO.LastP99, ts.SLO.LastFaults)
		}
	case "market":
		if st.Market == nil {
			fmt.Println("  marketplace not running (use -market)")
			break
		}
		m := st.Market
		fmt.Printf("  epochs=%d slo-enforced=%d slo-violations=%d leases=%d leased-pages=%d clawbacks=%d clawed-pages=%d predicted-savings=%d\n",
			m.Epochs, m.SLOEnforcedEpochs, m.SLOViolations, m.Leases, m.LeasedPages, m.Clawbacks, m.ClawedPages, m.PredictedSavings)
		if len(st.Leases) == 0 {
			fmt.Println("  lease book: empty")
			break
		}
		fmt.Printf("  %-6s %-8s %-8s %6s %7s %7s\n", "lease", "from", "to", "pages", "epoch", "price")
		for _, l := range st.Leases {
			fmt.Printf("  %-6d %-8s %-8s %6d %7d %7d\n", l.ID, l.From, l.To, l.Pages, l.Epoch, l.Price)
		}
	default:
		return fmt.Errorf("unknown host command %q (status | slo | market)", fields[0])
	}
	return nil
}

// buildStore assembles the replicated/chaos store stack for the daemon: N
// backend members, each optionally wrapped in a seeded fault injector, then
// (when replicas > 1) a replication wrapper on top. One member with chaos
// exercises the retry/degraded path alone; replicas add failover masking.
func buildStore(backend string, replicas int, chaos float64, seed uint64) (kvstore.Store, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("replicas must be >= 1, got %d", replicas)
	}
	members := make([]kvstore.Store, replicas)
	for i := range members {
		var inner kvstore.Store
		memberSeed := seed + 200 + uint64(i)
		switch backend {
		case "dram":
			inner = dram.New(dram.DefaultParams(), memberSeed)
		case "ramcloud":
			inner = ramcloud.New(ramcloud.DefaultParams(), memberSeed)
		case "memcached":
			inner = memcached.New(memcached.DefaultParams(), memberSeed)
		default:
			return nil, fmt.Errorf("unknown backend %q", backend)
		}
		if chaos > 0 {
			inner = faulty.Wrap(inner, faulty.Uniform(chaos, chaos), seed+300+uint64(i))
		}
		members[i] = inner
	}
	if replicas == 1 {
		return members[0], nil
	}
	return replicated.New(members...)
}

// failureEvent is one entry of the -failure-schedule: a membership or
// failure operation against the cluster pool at a virtual-time mark.
type failureEvent struct {
	op   string // crash | drain | partition | heal | recover | add
	node string // empty for recover/add
	at   time.Duration
}

// parseFailureSchedule parses "crash:node2@30s,drain:node1@60s" into events
// sorted by time.
func parseFailureSchedule(s string) ([]failureEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var events []failureEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		spec, atStr, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("failure-schedule %q: want <op>[:<node>]@<time>", item)
		}
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("failure-schedule %q: %w", item, err)
		}
		op, node, _ := strings.Cut(spec, ":")
		switch op {
		case "crash", "drain", "partition", "heal":
			if node == "" {
				return nil, fmt.Errorf("failure-schedule %q: %s needs a node name", item, op)
			}
		case "recover", "add":
			if node != "" {
				return nil, fmt.Errorf("failure-schedule %q: %s takes no node name", item, op)
			}
		default:
			return nil, fmt.Errorf("failure-schedule %q: unknown op %q", item, op)
		}
		events = append(events, failureEvent{op: op, node: node, at: at})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events, nil
}

// fireDue applies every scheduled event whose time has passed on the
// machine's virtual clock (all of them when flush is set, so a schedule that
// outlives the script still runs to completion) and returns the remainder.
func fireDue(m *fluidmem.Machine, events []failureEvent, flush bool) ([]failureEvent, error) {
	pool := m.ClusterPool()
	for len(events) > 0 && (flush || events[0].at <= m.Now()) {
		ev := events[0]
		events = events[1:]
		now := m.Now()
		var err error
		var note string
		switch ev.op {
		case "crash":
			err = pool.Crash(now, ev.node)
			note = fmt.Sprintf("crashed %s (abrupt: its copies are gone until recover)", ev.node)
		case "drain":
			var done time.Duration
			done, err = pool.Drain(now, ev.node)
			note = fmt.Sprintf("drained %s (copy-then-cutover done at %v, epoch %d)", ev.node, done, pool.Committed().Epoch)
		case "partition":
			err = pool.PartitionNode(ev.node)
			note = fmt.Sprintf("partitioned %s from the fabric", ev.node)
		case "heal":
			var done time.Duration
			done, err = pool.HealNode(now, ev.node)
			note = fmt.Sprintf("healed %s (resynced at %v)", ev.node, done)
		case "recover":
			var done time.Duration
			var copied int
			done, copied, err = pool.Recover(now)
			note = fmt.Sprintf("recovered crashed nodes (%d copies restored by %v, epoch %d)", copied, done, pool.Committed().Epoch)
		case "add":
			var name string
			var done time.Duration
			name, done, err = pool.AddNode(now)
			note = fmt.Sprintf("added %s (populated at %v, epoch %d)", name, done, pool.Committed().Epoch)
		}
		if err != nil {
			return events, fmt.Errorf("failure-schedule %s:%s@%v: %w", ev.op, ev.node, ev.at, err)
		}
		fmt.Printf("\n! t=%v %s\n", now, note)
	}
	return events, nil
}

// unwrapStore peels the tracing decorator (if present) so type assertions
// against concrete backends — e.g. the replication wrapper — still land.
func unwrapStore(s kvstore.Store) kvstore.Store {
	for {
		inner, ok := s.(interface{ Inner() kvstore.Store })
		if !ok {
			return s
		}
		s = inner.Inner()
	}
}

func execute(m *fluidmem.Machine, fields []string) error {
	switch fields[0] {
	case "status":
		st := m.Stats()
		mon := st.Monitor
		fmt.Printf("  t=%v resident=%d pages (%.3f MB) limit=%d faults=%d first-touch=%d remote-reads=%d steals=%d evictions=%d\n",
			st.Now, st.ResidentPages, float64(st.ResidentPages)*4/1024,
			st.FootprintLimit, mon.Faults, mon.FirstTouch, mon.RemoteReads, mon.Steals, mon.Evictions)
		if mon.ZeroElided > 0 || mon.CleanDropped > 0 || mon.ZeroRefills > 0 {
			fmt.Printf("  writeback: zero-elided=%d clean-dropped=%d zero-refills=%d wp-faults=%d\n",
				mon.ZeroElided, mon.CleanDropped, mon.ZeroRefills, st.WPFaults)
		}
		fmt.Printf("  store: %+v\n", *st.Store)
	case "resize":
		if len(fields) != 2 {
			return fmt.Errorf("usage: resize <pages>")
		}
		pages, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		if err := m.ResizeFootprint(pages); err != nil {
			return err
		}
		fmt.Printf("  footprint limit now %d pages, resident %d\n", pages, m.ResidentPages())
	case "hotplug":
		if len(fields) != 2 {
			return fmt.Errorf("usage: hotplug <mb>")
		}
		mb, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		if err := m.Hotplug(uint64(mb) << 20); err != nil {
			return err
		}
		fmt.Printf("  guest memory now %d MB\n", m.VM().MemBytes()>>20)
	case "probe":
		for _, svc := range []vm.Service{vm.SSHService(), vm.ICMPService()} {
			res, err := m.Probe(svc)
			if err != nil {
				return err
			}
			verdict := "TIMEOUT"
			switch {
			case res.Deadlocked:
				verdict = "DEADLOCKED"
			case res.Responded:
				verdict = fmt.Sprintf("OK in %v", res.Elapsed)
			}
			fmt.Printf("  %s @ %d pages: %s\n", svc.Name, res.FootprintPages, verdict)
		}
	case "health":
		st := m.Stats()
		if st.Health == nil {
			fmt.Println("  resilience policy disabled (run with -chaos or -replicas > 1)")
			break
		}
		h := st.Health
		fmt.Printf("  backend %s: consecutive-failures=%d stall=%v",
			h.State, h.ConsecutiveFailures, h.StallTime.Round(time.Microsecond))
		if h.LastError != nil {
			fmt.Printf(" last-error=%q", h.LastError)
		}
		fmt.Println()
		if st.Resilience != nil {
			c := st.Resilience.Counters()
			for _, name := range c.Names() {
				fmt.Printf("  resilience.%s=%d\n", name, c.Get(name))
			}
		}
		if rep, ok := unwrapStore(m.Store()).(*replicated.Store); ok {
			rc := rep.Counters()
			fmt.Printf("  replication: members=%d primary=%d failovers=%d member-errors=%d read-repairs=%d partial-puts=%d\n",
				rep.Members(), rep.Primary(), rc.Failovers, rc.MemberErrors, rc.ReadRepairs, rc.PartialPuts)
		}
		if pool := m.ClusterPool(); pool != nil {
			c := pool.ClusterStats()
			fmt.Printf("  cluster: epoch=%d nodes=%v replicas=%d stale-rejects=%d refreshes=%d failovers=%d partial-puts=%d read-repairs=%d re-replicated=%d\n",
				c.Epoch, pool.NodeNames(), c.Replicas, c.StaleRejects, c.Refreshes, c.Failovers, c.PartialPuts, c.ReadRepairs, c.Rereplicated)
		}
	case "hist":
		st := m.Stats()
		if len(st.Phases) == 0 {
			fmt.Println("  no latency histograms (run with -trace <file>)")
			break
		}
		fmt.Printf("  %-18s %7s %9s %12s %12s %12s %12s\n",
			"phase", "worker", "count", "p50", "p90", "p99", "max")
		for _, row := range st.Phases {
			worker := strconv.Itoa(row.Worker)
			if row.Worker == fluidmem.MergedWorkers {
				worker = "all"
			}
			fmt.Printf("  %-18s %7s %9d %12v %12v %12v %12v\n",
				row.Phase, worker, row.Count, row.P50, row.P90, row.P99, row.Max)
		}
	case "tick":
		if len(fields) != 2 {
			return fmt.Errorf("usage: tick <touches>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		if err := m.OSTick(n); err != nil {
			return err
		}
		fmt.Printf("  OS ticked %d touches, resident %d\n", n, m.ResidentPages())
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}
