// Command fluidmemd is FluidMem's operator console, the "cloud provider
// console" the paper's §III envisions. It boots a host of one or more VMs
// that share one key-value store and one local DRAM budget, then runs a
// script of commands against it, printing the system's view after each
// step: footprint operations and service probes on the first VM, the host's
// cyclic drive and planner views, and failure events on a cluster pool, each
// where the script puts it. -scenario replays an open-loop traffic scenario
// instead.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/bench"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fluidmemd:", err)
		os.Exit(1)
	}
}

// epochOps is the per-tenant operation count of one planner epoch, and so of
// one epoch of the drive command.
const epochOps = 512

// plannerModes names each -planner value's budget policy on the boot line;
// a value it lacks is refused.
var plannerModes = map[fluidmem.Planner]string{
	fluidmem.PlannerStatic:  "static equal split",
	fluidmem.PlannerArbiter: "arbiter rebalancing",
	fluidmem.PlannerMarket:  "marketplace (SLO claw-back)",
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fluidmemd", flag.ContinueOnError)
	var (
		backend = fs.String("backend", "ramcloud", "dram | ramcloud | memcached | cluster")
		localMB = fs.Int("local", 64, "local DRAM budget in MB, shared by every VM")
		guestMB = fs.Int("guest", 256, "guest memory per VM in MB")
		script  = fs.String("script", "status;resize 180;probe;resize 80;probe;resize 32768;probe;status",
			"semicolon-separated commands, run in order. First VM: status | resize <pages> | hotplug <mb> | probe | tick <n> | health | hist. "+
				"Host: drive <epochs> | slo | market. Cluster pool: crash <node> | drain <node> | partition <node> | heal <node> | recover | add")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		replicas   = fs.Int("replicas", 1, "replication factor: backend members (replicated wrapper), or copies per partition with -backend cluster (unset there: the pool's default of 2)")
		storeNodes = fs.Int("store-nodes", 3, "store node count (-backend cluster only)")
		chaos      = fs.Float64("chaos", 0, "per-member transient error+spike rate (0 disables injection); enables the resilience policy (not with -backend cluster)")
		workers    = fs.Int("workers", 1, "fault-pipeline width (>= 1): a fault waits only for the worker that owns its page; widths change timing, never behaviour")
		elideZero  = fs.Bool("elide-zero", false, "elide all-zero evicted pages into the zero bitmap (re-faults resolve with UFFDIO_ZEROPAGE, no store traffic)")
		cleanDrop  = fs.Bool("clean-drop", false, "write-protect store-backed installs and drop still-clean eviction victims without a store write")
		traceOut   = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the first VM and the shared store to this file; also enables the hist command")
		vms        = fs.Int("vms", 1, "VM count sharing the local budget: the first, \"hot\", drives a working set past its equal split; the rest, \"cold1\"..., a quarter of theirs under a tight p99 SLO")
		planner    = fs.String("planner", "static", "static | arbiter | market: keep the equal split of the shared budget, rebalance it each epoch from the ghost-LRU miss-ratio curves, or run the Memtrade-style marketplace (curve-priced leases with p99-SLO claw-back); arbiter and market need -vms > 1")
		scenario   = fs.String("scenario", "", "replay a named open-loop traffic scenario (diurnal | flashcrowd | churn) against a multi-tenant host and print the offered-load/goodput report; -planner picks the planner, -rate-scale sweeps the offered load")
		rateScale  = fs.Float64("rate-scale", 1, "with -scenario: multiply every tenant's offered-load curve (the knee-of-curve sweep axis)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *guestMB < 1 {
		return fmt.Errorf("-guest must be >= 1, got %d", *guestMB)
	}
	plan := fluidmem.Planner(*planner)
	mode, ok := plannerModes[plan]
	if !ok {
		return fmt.Errorf("-planner must be static, arbiter or market, got %q", *planner)
	}
	if *scenario != "" {
		if err := rejectUnsupported(fs, "the -scenario replay (it builds its own tenant population on the DRAM store)",
			"scenario", "rate-scale", "planner", "workers", "seed"); err != nil {
			return err
		}
		return runScenario(w, *scenario, plan, *rateScale, *workers, *seed)
	}
	cluster := *backend == string(fluidmem.BackendCluster)
	switch {
	case set["rate-scale"]:
		return fmt.Errorf("-rate-scale is not supported without -scenario")
	case cluster && set["chaos"]:
		return fmt.Errorf("-chaos is not supported by -backend cluster (inject node failures with the crash and partition commands)")
	case !cluster && set["store-nodes"]:
		return fmt.Errorf("-store-nodes is not supported by -backend %s", *backend)
	case *vms < 1:
		return fmt.Errorf("-vms must be >= 1, got %d", *vms)
	case *replicas < 1:
		return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	case plan != fluidmem.PlannerStatic && *vms < 2:
		return fmt.Errorf("-planner %s needs -vms > 1: one VM has nobody to trade with", plan)
	}

	c := &console{w: w}
	mon := core.DefaultConfig(nil, 0) // NewMachine sizes the LRU to the VM's share
	mon.Workers, mon.ElideZeroPages, mon.CleanPageDrop = *workers, *elideZero, *cleanDrop
	if cluster || *replicas > 1 || *chaos > 0 {
		// Retry transient member errors and membership changes (stale
		// epochs, crash windows) instead of surfacing them to the guest.
		policy := resilience.DefaultPolicy()
		mon.Resilience = &policy
	}
	vmc := fluidmem.MachineConfig{
		Backend:     fluidmem.Backend(*backend),
		GuestMemory: uint64(*guestMB) << 20,
		BootOS:      true,
		Monitor:     &mon,
	}
	switch {
	case cluster:
		vmc.StoreNodes = *storeNodes
		if set["replicas"] {
			vmc.StoreReplicas = *replicas
		}
	case *replicas > 1 || *chaos > 0:
		store, err := buildStore(*backend, *replicas, *chaos, *seed)
		if err != nil {
			return err
		}
		vmc.SharedStore = store
		c.rep, _ = store.(*replicated.Store)
	}

	totalPages := (*localMB << 20) / int(fluidmem.PageSize)
	equal := totalPages / *vms
	specs := make([]fluidmem.TenantSpec, *vms)
	c.spans = make([]int, *vms)
	specs[0], c.spans[0] = fluidmem.TenantSpec{ID: "hot", VM: vmc}, equal+equal/4
	for i := 1; i < *vms; i++ {
		// The cold tenants are the marketplace's protected class: donors
		// with a p99 target below any store's fault latency, so donation-
		// induced faulting violates the SLO and triggers claw-back.
		specs[i] = fluidmem.TenantSpec{ID: fmt.Sprintf("cold%d", i), VM: vmc, Policy: fluidmem.TenantPolicy{SLO: time.Microsecond}}
		c.spans[i] = max(equal/4, 1)
	}
	hc := fluidmem.HostConfig{Tenants: specs, TotalLocalPages: totalPages, Planner: plan, Seed: *seed, EpochOps: epochOps}
	if *traceOut != "" {
		hc.Tracer = fluidmem.NewTracer(true)
		hc.Tenants[0].VM.Tracer = hc.Tracer
	}
	h, err := fluidmem.NewHost(hc)
	if err != nil {
		return err
	}
	c.h, c.m = h, h.Tenants()[0].Machine()
	fmt.Fprintf(w, "fluidmemd: booted %d x %d MB guest on %s, local budget %d MB (%d pages, %s), %s resident %d pages (%.1f MB), boot took %v\n",
		*vms, *guestMB, *backend, *localMB, totalPages, mode, specs[0].ID, c.m.ResidentPages(), float64(c.m.ResidentPages())*4/1024, h.Now())

	for _, raw := range strings.Split(*script, ";") {
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n> %s\n", strings.Join(fields, " "))
		if err := c.execute(fields); err != nil {
			return fmt.Errorf("%s: %w", fields[0], err)
		}
	}
	if *traceOut == "" {
		return nil
	}
	var trace bytes.Buffer
	if err := c.m.WriteTrace(&trace); err != nil {
		return err
	}
	if err := os.WriteFile(*traceOut, trace.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote Chrome trace to %s (%d events)\n", *traceOut, len(c.m.Tracer().Events()))
	return nil
}

// runScenario is the -scenario console: it replays a named open-loop traffic
// scenario (internal/loadgen, DESIGN.md §17) against a live multi-tenant host
// and prints the offered-load/goodput/sojourn report. Everything is virtual
// time, so the same seed prints the same report on every machine.
func runScenario(w io.Writer, name string, planner loadgen.Planner, scale float64, workers int, seed uint64) error {
	scen, err := loadgen.NamedScenario(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fluidmemd: open-loop scenario %q — %d tenants on %d shared pages, planner %s, rate x%g\n",
		name, len(scen.Tenants), scen.TotalLocalPages, planner, scale)
	rep, err := loadgen.Run(loadgen.Config{Scenario: scen, Planner: planner, Workers: workers, Seed: seed, RateScale: scale})
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Render())
	verdict := "meets the %v target: below the knee (try a larger -rate-scale)"
	if rep.SojournP99 > scen.P99Target {
		verdict = "EXCEEDS the %v target: this offered load is past the knee"
	}
	fmt.Fprintf(w, "p99 sojourn %v "+verdict+"\n", rep.SojournP99.Round(time.Microsecond), scen.P99Target)
	return nil
}

// rejectUnsupported returns an error naming a flag given on the command line
// that the -scenario replay does not honour, which it would otherwise drop
// silently (a trace never written, a script never run).
func rejectUnsupported(fs *flag.FlagSet, mode string, honoured ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(honoured, f.Name) {
			err = fmt.Errorf("-%s is not supported by %s", f.Name, mode)
		}
	})
	return err
}

// buildStore assembles the replicated/chaos store stack for the daemon: N
// backend members, each optionally wrapped in a seeded fault injector, then
// (when replicas > 1) a replication wrapper on top. One member with chaos
// exercises the retry/degraded path alone; replicas add failover masking.
func buildStore(backend string, replicas int, chaos float64, seed uint64) (kvstore.Store, error) {
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

// console runs script commands against one host: machine commands act on the
// first tenant's machine m, drive cycles every tenant's working set of spans
// pages, and pool commands act on the cluster pool behind the shared store.
// rep is that store when it is the -replicas wrapper.
type console struct {
	w      io.Writer
	h      *fluidmem.Host
	m      *fluidmem.Machine
	rep    *replicated.Store
	spans  []int
	drive  func(ops int, spans []int) error
	epochs int
}

func (c *console) execute(fields []string) error {
	cmd, ok := commands[fields[0]]
	switch {
	case !ok:
		return fmt.Errorf("unknown command %q", fields[0])
	case cmd.arg == "" && len(fields) != 1, cmd.arg != "" && len(fields) != 2:
		return fmt.Errorf("usage: %s %s", fields[0], cmd.arg)
	case cmd.pool && c.m.ClusterPool() == nil:
		return fmt.Errorf("needs -backend cluster")
	}
	arg := strings.Join(fields[1:], "") // the one argument, "" if the command takes none
	n, err := strconv.Atoi(arg)         // used only when the argument is a number
	if cmd.num && err != nil {
		return err
	}
	out, err := cmd.run(c, c.h.Now(), arg, n)
	if err == nil && out != "" {
		fmt.Fprintf(c.w, "  %s\n", out)
	}
	return err
}

// command is one entry of the console's command table. arg is the usage of
// its one argument ("" when it takes none), num says that argument is an
// integer (run gets it as n), pool that the command needs the cluster pool.
// run gets the host clock as now, the time a pool event fires, and returns
// the line printed once the command has succeeded, if any.
type command struct {
	arg       string
	num, pool bool
	run       func(c *console, now time.Duration, arg string, n int) (string, error)
}

var commands = map[string]command{
	"status": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		st := c.m.Stats()
		mon := st.Monitor
		fmt.Fprintf(c.w, "  t=%v resident=%d pages (%.3f MB) limit=%d faults=%d first-touch=%d remote-reads=%d steals=%d evictions=%d\n",
			st.Now, st.ResidentPages, float64(st.ResidentPages)*4/1024,
			st.FootprintLimit, mon.Faults, mon.FirstTouch, mon.RemoteReads, mon.Steals, mon.Evictions)
		if mon.ZeroElided > 0 || mon.CleanDropped > 0 || mon.ZeroRefills > 0 {
			fmt.Fprintf(c.w, "  writeback: zero-elided=%d clean-dropped=%d zero-refills=%d wp-faults=%d\n",
				mon.ZeroElided, mon.CleanDropped, mon.ZeroRefills, st.WPFaults)
		}
		fmt.Fprintf(c.w, "  store: %+v\n", *st.Store)
		if hs := c.h.Stats(); len(hs.Tenants) > 1 {
			fmt.Fprintf(c.w, "  %-8s %6s %7s %5s %10s %11s %10s\n", "tenant", "span", "share", "wss", "faults", "ghost-hits", "evictions")
			for i, ts := range hs.Tenants {
				// A host tenant always has a monitor and a ghost-LRU estimator.
				fmt.Fprintf(c.w, "  %-8s %6d %7d %5d %10d %11d %10d\n",
					ts.ID, c.spans[i], ts.SharePages, ts.WSSPages, ts.Faults, ts.VM.Hotset.GhostHits, ts.VM.Monitor.Evictions)
			}
			if a := hs.Arbiter; a.Epochs > 0 {
				fmt.Fprintf(c.w, "  planner: epochs=%d moves=%d granted=%d donated=%d predicted-savings=%d realized-savings=%d\n",
					a.Epochs, a.Moves, a.GrantedPages, a.DonatedPages, a.PredictedSavings, a.RealizedSavings)
			}
		}
		return "", nil
	}},
	"resize": {arg: "<pages>", num: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		err := c.m.ResizeFootprint(n)
		return fmt.Sprintf("footprint limit now %d pages, resident %d", n, c.m.ResidentPages()), err
	}},
	"hotplug": {arg: "<mb>", num: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		err := c.m.Hotplug(uint64(n) << 20)
		return fmt.Sprintf("guest memory now %d MB", c.m.VM().MemBytes()>>20), err
	}},
	"probe": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		for _, svc := range []vm.Service{vm.SSHService(), vm.ICMPService()} {
			res, err := c.m.Probe(svc)
			if err != nil {
				return "", err
			}
			verdict := "TIMEOUT"
			switch {
			case res.Deadlocked:
				verdict = "DEADLOCKED"
			case res.Responded:
				verdict = fmt.Sprintf("OK in %v", res.Elapsed)
			}
			fmt.Fprintf(c.w, "  %s @ %d pages: %s\n", svc.Name, res.FootprintPages, verdict)
		}
		return "", nil
	}},
	"tick": {arg: "<touches>", num: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		err := c.m.OSTick(n)
		return fmt.Sprintf("OS ticked %d touches, resident %d", n, c.m.ResidentPages()), err
	}},
	"health": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		st := c.m.Stats()
		if st.Health == nil {
			return "resilience policy disabled (run with -chaos, -replicas > 1 or -backend cluster)", nil
		}
		h := st.Health
		fmt.Fprintf(c.w, "  backend %s: consecutive-failures=%d stall=%v",
			h.State, h.ConsecutiveFailures, h.StallTime.Round(time.Microsecond))
		if h.LastError != nil {
			fmt.Fprintf(c.w, " last-error=%q", h.LastError)
		}
		fmt.Fprintln(c.w)
		if r := st.Resilience; r != nil {
			fmt.Fprintf(c.w, "  resilience.ops=%d\n  resilience.retries=%d\n  resilience.failovers=%d\n  resilience.slow_ops=%d\n"+
				"  resilience.deadline_exceeded=%d\n  resilience.degraded_entries=%d\n  resilience.degraded_exits=%d\n"+
				"  resilience.stall_exhausted=%d\n  resilience.permanent_errors=%d\n  resilience.stall_us=%d\n  resilience.backoff_us=%d\n",
				r.Ops, r.Retries, r.Failovers, r.SlowOps, r.DeadlineExceeded, r.DegradedEntries, r.DegradedExits,
				r.StallExhausted, r.PermanentErrors, r.StallTime/time.Microsecond, r.BackoffTime/time.Microsecond)
		}
		if rep := c.rep; rep != nil {
			rc := rep.Counters()
			fmt.Fprintf(c.w, "  replication: members=%d primary=%d failovers=%d member-errors=%d read-repairs=%d partial-puts=%d\n",
				rep.Members(), rep.Primary(), rc.Failovers, rc.MemberErrors, rc.ReadRepairs, rc.PartialPuts)
		}
		if pool := c.m.ClusterPool(); pool != nil {
			cs := pool.ClusterStats()
			fmt.Fprintf(c.w, "  cluster: epoch=%d nodes=%v replicas=%d stale-rejects=%d refreshes=%d failovers=%d partial-puts=%d read-repairs=%d re-replicated=%d\n",
				cs.Epoch, pool.NodeNames(), cs.Replicas, cs.StaleRejects, cs.Refreshes, cs.Failovers, cs.PartialPuts, cs.ReadRepairs, cs.Rereplicated)
		}
		return "", nil
	}},
	"hist": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		st := c.m.Stats()
		if len(st.Phases) == 0 {
			return "no latency histograms (run with -trace <file>)", nil
		}
		fmt.Fprintf(c.w, "  %-18s %7s %9s %12s %12s %12s %12s\n", "phase", "worker", "count", "p50", "p90", "p99", "max")
		for _, row := range st.Phases {
			worker := strconv.Itoa(row.Worker)
			if row.Worker == fluidmem.MergedWorkers {
				worker = "all"
			}
			fmt.Fprintf(c.w, "  %-18s %7s %9d %12v %12v %12v %12v\n",
				row.Phase, worker, row.Count, row.P50, row.P90, row.P99, row.Max)
		}
		return "", nil
	}},
	"drive": {arg: "<epochs>", num: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		if c.drive == nil {
			var err error
			if c.drive, err = bench.CyclicDrive(c.h.Tenants(), c.spans); err != nil {
				return "", err
			}
		}
		for ; n > 0; n-- {
			if err := c.drive(epochOps, c.spans); err != nil {
				return "", err
			}
			c.epochs++
			st := c.h.Stats()
			shares, wss := make([]int, len(st.Tenants)), make([]int, len(st.Tenants))
			for i, ts := range st.Tenants {
				shares[i], wss[i] = ts.SharePages, ts.WSSPages
			}
			fmt.Fprintf(c.w, "  epoch %d: t=%v shares=%v wss=%v\n", c.epochs, st.Now.Round(time.Microsecond), shares, wss)
		}
		return "", c.h.Drain()
	}},
	"slo": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		fmt.Fprintf(c.w, "  %-8s %10s %8s %10s %12s %12s\n", "tenant", "target", "windows", "violations", "last-p99", "last-faults")
		for _, ts := range c.h.Stats().Tenants {
			target := "-"
			if ts.Policy.SLO > 0 {
				target = ts.Policy.SLO.String()
			}
			fmt.Fprintf(c.w, "  %-8s %10s %8d %10d %12v %12d\n",
				ts.ID, target, ts.SLO.Windows, ts.SLO.Violations, ts.SLO.LastP99, ts.SLO.LastFaults)
		}
		return "", nil
	}},
	"market": {run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		st := c.h.Stats()
		if st.Market == nil {
			return "marketplace not running (use -planner market)", nil
		}
		mk := st.Market
		fmt.Fprintf(c.w, "  epochs=%d slo-enforced=%d slo-violations=%d leases=%d leased-pages=%d clawbacks=%d clawed-pages=%d predicted-savings=%d\n",
			mk.Epochs, mk.SLOEnforcedEpochs, mk.SLOViolations, mk.Leases, mk.LeasedPages, mk.Clawbacks, mk.ClawedPages, mk.PredictedSavings)
		if len(st.Leases) == 0 {
			return "lease book: empty", nil
		}
		fmt.Fprintf(c.w, "  %-6s %-8s %-8s %6s %7s %7s\n", "lease", "from", "to", "pages", "epoch", "price")
		for _, l := range st.Leases {
			fmt.Fprintf(c.w, "  %-6d %-8s %-8s %6d %7d %7d\n", l.ID, l.From, l.To, l.Pages, l.Epoch, l.Price)
		}
		return "", nil
	}},
	"crash": {arg: "<node>", pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		return fmt.Sprintf("t=%v crashed %s (abrupt: its copies are gone until recover)", now, arg), c.m.ClusterPool().Crash(now, arg)
	}},
	"drain": {arg: "<node>", pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		done, err := c.m.ClusterPool().Drain(now, arg)
		return fmt.Sprintf("t=%v drained %s (copy-then-cutover done at %v, epoch %d)", now, arg, done, c.m.ClusterPool().Committed().Epoch), err
	}},
	"partition": {arg: "<node>", pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		return fmt.Sprintf("t=%v partitioned %s from the fabric", now, arg), c.m.ClusterPool().PartitionNode(arg)
	}},
	"heal": {arg: "<node>", pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		done, err := c.m.ClusterPool().HealNode(now, arg)
		return fmt.Sprintf("t=%v healed %s (resynced at %v)", now, arg, done), err
	}},
	"recover": {pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		done, copied, err := c.m.ClusterPool().Recover(now)
		return fmt.Sprintf("t=%v recovered crashed nodes (%d copies restored by %v, epoch %d)", now, copied, done, c.m.ClusterPool().Committed().Epoch), err
	}},
	"add": {pool: true, run: func(c *console, now time.Duration, arg string, n int) (string, error) {
		name, done, err := c.m.ClusterPool().AddNode(now)
		return fmt.Sprintf("t=%v added %s (populated at %v, epoch %d)", now, name, done, c.m.ClusterPool().Committed().Epoch), err
	}},
}
