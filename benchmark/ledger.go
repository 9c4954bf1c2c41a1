package main

import (
	"fmt"
	"runtime"
	"time"

	"fluidmem"
	"fluidmem/internal/arbiter"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/replicated"
	"fluidmem/internal/loadgen"
	"fluidmem/internal/market"
	"fluidmem/internal/raft"
	"fluidmem/internal/simnet"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
)

// The ledger drives each layer alone through its exported functions, a fixed
// number of calls, and reports host nanoseconds (and, where a layer is known
// to allocate, heap allocations) per call. It is the per-layer price list the
// workloads' counts multiply against. A row is the fastest of ledgerTrials
// drives on fresh state: the minimum is the least disturbed one.
const ledgerTrials = 3

// ledgerRow is one layer drive. build makes fresh state and returns the loop,
// which performs n calls and returns the wall time of the calls alone.
type ledgerRow struct {
	ns     string  // metric name for time per call
	allocs string  // metric name for allocations per call, "" for none
	calls  int     // calls per drive
	per    float64 // units per call: 32 for a 32-page batch priced per page
	build  func() func(n int) time.Duration
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

func timed(n int, call func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		call(i)
	}
	return time.Since(start)
}

// must turns a broken ledger drive into a panic: a drive that cannot run is a
// benchmark bug or an API break, never an input error.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ledger: %v", err))
	}
}

const (
	ledgerBase = uint64(0x7f00_0000_0000)
	ledgerKeys = 1024
)

func ledgerKey(i int) kvstore.Key {
	return kvstore.MakeKey(ledgerBase+uint64(i%ledgerKeys)*kvstore.PageSize, 1)
}

func ledgerPage() []byte {
	p := make([]byte, kvstore.PageSize)
	for i := range p {
		p[i] = byte(i*7 + 1)
	}
	return p
}

// filled returns the store with ledgerKeys pages in it.
func filled(s kvstore.Store) kvstore.Store {
	page := ledgerPage()
	for i := 0; i < ledgerKeys; i++ {
		_, err := s.Put(0, ledgerKey(i), page)
		must(err)
	}
	return s
}

func getRow(name string, calls int, mk func() kvstore.Store) ledgerRow {
	return ledgerRow{ns: name + ".get.ns", calls: calls, per: 1, build: func() func(int) time.Duration {
		s := filled(mk())
		var now time.Duration
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				data, done, err := s.Get(now, ledgerKey(i))
				must(err)
				now = done
				sink += uint64(data[0])
			})
		}
	}}
}

func putRow(name string, calls int, mk func() kvstore.Store) ledgerRow {
	return ledgerRow{ns: name + ".put.ns", calls: calls, per: 1, build: func() func(int) time.Duration {
		s := filled(mk())
		page := ledgerPage()
		var now time.Duration
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				done, err := s.Put(now, ledgerKey(i), page)
				must(err)
				now = done
			})
		}
	}}
}

func multiPutRow(name string, calls, batch int, mk func() kvstore.Store) ledgerRow {
	return ledgerRow{ns: fmt.Sprintf("%s.multiput%d.ns_per_page", name, batch), calls: calls, per: float64(batch),
		build: func() func(int) time.Duration {
			s := filled(mk())
			keys := make([]kvstore.Key, batch)
			pages := make([][]byte, batch)
			for j := range pages {
				pages[j] = ledgerPage()
			}
			var now time.Duration
			return func(n int) time.Duration {
				return timed(n, func(i int) {
					for j := range keys {
						keys[j] = ledgerKey(i*batch + j)
					}
					done, err := s.MultiPut(now, keys, pages)
					must(err)
					now = done
				})
			}
		}}
}

func multiGetRow(name string, calls, batch int, mk func() kvstore.Store) ledgerRow {
	return ledgerRow{ns: fmt.Sprintf("%s.multiget%d.ns_per_page", name, batch), calls: calls, per: float64(batch),
		build: func() func(int) time.Duration {
			s := filled(mk())
			keys := make([]kvstore.Key, batch)
			var now time.Duration
			return func(n int) time.Duration {
				return timed(n, func(i int) {
					for j := range keys {
						keys[j] = ledgerKey(i*batch + j)
					}
					pages, done, err := s.MultiGet(now, keys)
					must(err)
					now = done
					sink += uint64(len(pages))
				})
			}
		}}
}

func newDRAM() kvstore.Store     { return dram.New(dram.DefaultParams(), 1) }
func newRAMCloud() kvstore.Store { return ramcloud.New(ramcloud.DefaultParams(), 1) }
func newMemcached() kvstore.Store {
	return memcached.New(memcached.DefaultParams(), 1)
}

func newReplicated() kvstore.Store {
	s, err := replicated.New(ramcloud.New(ramcloud.DefaultParams(), 1), ramcloud.New(ramcloud.DefaultParams(), 3))
	must(err)
	return s
}

func newClusterPool() kvstore.Store {
	p, err := cluster.New(cluster.Config{Nodes: 3, Replicas: 2, Seed: 1})
	must(err)
	return p
}

// planViews builds eight tenants' epoch views: an equal split of 1024 pages,
// with the tenants in hot holding a curve that says more memory would help.
func planViews(hot int) []arbiter.VMView {
	views := make([]arbiter.VMView, 8)
	for i := range views {
		hits := make([]uint64, 16)
		if i%2 == hot {
			for b := range hits {
				hits[b] = uint64(400 / (b + 1))
			}
		}
		views[i] = arbiter.VMView{
			ID:           fmt.Sprintf("vm%d", i),
			SharePages:   128,
			Curve:        hotset.Curve{BucketPages: 8, Hits: hits},
			WindowFaults: 500,
		}
	}
	return views
}

// planEpochs is how many epochs one planner instance plans before the drive
// starts a fresh one: the market's lease book grows with every epoch that
// trades, and a run's worth of epochs is what a planner sees.
const planEpochs = 64

// planRow drives a planner the way Host.rebalance does: plan, apply the
// shares, and let the hot half of the tenants flip every epoch so that pages
// keep moving.
func planRow(ns, allocs string, mk func() arbiter.Planner) ledgerRow {
	return ledgerRow{ns: ns, allocs: allocs, calls: 4_000, per: 1, build: func() func(int) time.Duration {
		var planner arbiter.Planner
		phases := [2][]arbiter.VMView{planViews(0), planViews(1)}
		shares := make(map[string]int)
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				if i%planEpochs == 0 {
					planner = mk()
					for _, v := range phases[0] {
						shares[v.ID] = 128
					}
				}
				views := phases[i&1]
				for j := range views {
					views[j].SharePages = shares[views[j].ID]
				}
				plan, err := planner.Plan(views)
				must(err)
				for id, s := range plan.Shares {
					shares[id] = s
				}
			})
		}
	}}
}

var ledgerRows = []ledgerRow{
	// A fixed integer-and-copy kernel: divide any other row by it to compare
	// ledgers taken on different machines.
	{ns: "calib.spin_ns", calls: 20_000, per: 1, build: func() func(int) time.Duration {
		src, dst := make([]byte, 64<<10), make([]byte, 64<<10)
		return func(n int) time.Duration {
			x := uint64(1)
			d := timed(n, func(int) {
				for k := 0; k < 256; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				src[x>>48] = byte(x)
				copy(dst, src)
			})
			sink += x + uint64(dst[0])
			return d
		}
	}},
	{ns: "clock.rand_norm.ns", calls: 1_500_000, per: 1, build: func() func(int) time.Duration {
		r := clock.NewRand(1)
		return func(n int) time.Duration {
			var acc float64
			d := timed(n, func(int) { acc += r.NormFloat64() })
			sink += uint64(int64(acc))
			return d
		}
	}},
	{ns: "clock.latency_sample.ns", calls: 1_500_000, per: 1, build: func() func(int) time.Duration {
		r := clock.NewRand(1)
		model := uffd.DefaultParams().Copy // base + jitter + tail, the common shape
		return func(n int) time.Duration {
			var acc time.Duration
			d := timed(n, func(int) { acc += model.Sample(r) })
			sink += uint64(acc)
			return d
		}
	}},
	{ns: "clock.device_submit.ns", calls: 1_500_000, per: 1, build: func() func(int) time.Duration {
		dev := clock.NewDevice(ramcloud.DefaultParams().WriteLatency, 1)
		var now time.Duration
		return func(n int) time.Duration {
			d := timed(n, func(int) { now = dev.Submit(now + time.Microsecond) })
			sink += uint64(now)
			return d
		}
	}},
	{ns: "clock.sched_push_pop.ns", allocs: "clock.sched_push_pop.allocs", calls: 250_000, per: 1,
		build: func() func(int) time.Duration {
			s := clock.NewScheduler()
			fn := func(time.Duration) { sink++ }
			for i := 0; i < 64; i++ { // a resident heap, as a run with many streams has
				s.Schedule(time.Duration(i)*time.Microsecond, i, fn)
			}
			return func(n int) time.Duration {
				return timed(n, func(i int) {
					s.Schedule(s.Now()+64*time.Microsecond, i&63, fn)
					s.Step()
				})
			}
		}},
	{ns: "simnet.send_deliver.ns", allocs: "simnet.send_deliver.allocs", calls: 75_000, per: 1,
		build: func() func(int) time.Duration {
			net := simnet.New(clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}, 1)
			net.Register("a", func(time.Duration, simnet.Message) {})
			net.Register("b", func(time.Duration, simnet.Message) { sink++ })
			payload := any(uint64(7))
			return func(n int) time.Duration {
				return timed(n, func(int) {
					net.Send("a", "b", payload)
					net.Step()
				})
			}
		}},
	{ns: "raft.commit.ns", calls: 6_000, per: 1, build: func() func(int) time.Duration {
		net := simnet.New(clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}, 1)
		peers := []string{"r0", "r1", "r2"}
		applied := make([]uint64, len(peers))
		nodes := make([]*raft.Node, len(peers))
		for i, id := range peers {
			i := i
			nodes[i] = raft.NewNode(raft.Config{ID: id, Peers: peers, Seed: uint64(i) + 1}, net,
				func(uint64, any) { applied[i]++ })
		}
		leader := -1
		for tries := 0; leader < 0 && tries < 1000; tries++ {
			net.RunFor(10 * time.Millisecond)
			for i, nd := range nodes {
				if nd.Role() == raft.Leader {
					leader = i
				}
			}
		}
		if leader < 0 {
			panic("ledger: raft elected no leader")
		}
		return func(n int) time.Duration {
			return timed(n, func(int) {
				want := applied[leader] + 1
				if _, _, ok := nodes[leader].Propose(uint64(want)); !ok {
					panic("ledger: raft leader refused a proposal")
				}
				for applied[leader] < want {
					if !net.Step() {
						panic("ledger: raft network went idle before commit")
					}
				}
			})
		}
	}},

	getRow("kvstore.dram", 600_000, newDRAM),
	putRow("kvstore.dram", 200_000, newDRAM),
	multiPutRow("kvstore.dram", 5_000, 32, newDRAM),
	getRow("kvstore.ramcloud", 750_000, newRAMCloud),
	putRow("kvstore.ramcloud", 100_000, newRAMCloud),
	multiPutRow("kvstore.ramcloud", 4_000, 32, newRAMCloud),
	multiGetRow("kvstore.ramcloud", 200_000, 8, newRAMCloud),
	getRow("kvstore.memcached", 600_000, newMemcached),
	putRow("kvstore.memcached", 150_000, newMemcached),
	getRow("kvstore.replicated", 600_000, newReplicated),
	multiPutRow("kvstore.replicated", 2_000, 32, newReplicated),
	func() ledgerRow {
		r := getRow("kvstore.cluster", 300_000, newClusterPool)
		r.allocs = "kvstore.cluster.get.allocs"
		return r
	}(),
	multiPutRow("kvstore.cluster", 2_500, 32, newClusterPool),

	{ns: "uffd.access_hit.ns", calls: 3_000_000, per: 1, build: func() func(int) time.Duration {
		fd := uffd.New(uffd.DefaultParams(), 1)
		_, err := fd.Register(ledgerBase, 256*uffd.PageSize, 1)
		must(err)
		page := ledgerPage()
		for i := uint64(0); i < 256; i++ {
			_, err := fd.Copy(0, ledgerBase+i*uffd.PageSize, page)
			must(err)
		}
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				data, _, hit, err := fd.Access(0, ledgerBase+uint64(i&255)*uffd.PageSize, false)
				if err != nil || !hit {
					panic("ledger: uffd access of a resident page missed")
				}
				sink += uint64(data[0])
			})
		}
	}},
	uffdInstallRow("uffd.zeropage.ns", func(fd *uffd.FD, addr uint64, _ []byte) error {
		_, err := fd.ZeroPage(0, addr)
		return err
	}),
	uffdInstallRow("uffd.copy.ns", func(fd *uffd.FD, addr uint64, page []byte) error {
		_, err := fd.Copy(0, addr, page)
		return err
	}),
	{ns: "uffd.remap.ns", calls: 512_000, per: 1, build: func() func(int) time.Duration {
		fd, page := newLedgerFD()
		return func(n int) time.Duration {
			var total time.Duration
			for done := 0; done < n; done += uffdBatch {
				for i := uint64(0); i < uffdBatch; i++ {
					_, err := fd.Copy(0, ledgerBase+i*uffd.PageSize, page)
					must(err)
				}
				total += timed(uffdBatch, func(i int) {
					frame, _, err := fd.Remap(0, ledgerBase+uint64(i)*uffd.PageSize, false)
					must(err)
					fd.Recycle(frame)
				})
			}
			return total
		}
	}},
	{ns: "vm.touch_hit.ns", calls: 2_000_000, per: 1, build: func() func(int) time.Duration {
		// Every page resident, a different page each call: the monitor-hit
		// path a BFS takes, not the vm's one-entry same-page cache.
		m, err := fluidmem.NewMachine(fluidmem.MachineConfig{
			Backend: fluidmem.BackendDRAM, LocalMemory: 256 * fluidmem.PageSize, GuestMemory: 256 * fluidmem.PageSize, Seed: 1,
		})
		must(err)
		seg, err := m.Alloc("hit", 128*fluidmem.PageSize)
		must(err)
		for i := uint64(0); i < 128; i++ {
			must(m.Write64(seg.Addr(i*fluidmem.PageSize), i+1))
		}
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				v, err := m.Read64(seg.Addr(uint64(i&127) * fluidmem.PageSize))
				must(err)
				sink += v
			})
		}
	}},
	{ns: "core.touch_miss.ns", allocs: "core.touch_miss.allocs", calls: 50_000, per: 1,
		build: func() func(int) time.Duration {
			// hotpath-probe's loop on the DRAM store: dirty faults cycling
			// over twice the capacity, so every touch misses, evicts and
			// writes back.
			const pages, capacity = 512, 256
			mon, err := core.NewMonitor(core.DefaultConfig(dram.New(dram.DefaultParams(), 9), capacity), nil, "ledger")
			must(err)
			_, err = mon.RegisterRange(ledgerBase, pages*core.PageSize, 1)
			must(err)
			var now time.Duration
			k := 0
			touch := func(int) {
				_, done, err := mon.Touch(now, ledgerBase+uint64(k%pages)*core.PageSize, true)
				must(err)
				now = done
				k++
			}
			timed(3*pages, touch) // to steady state: frames pooled, maps grown
			return func(n int) time.Duration { return timed(n, touch) }
		}},
	{ns: "hotset.fault_evict.ns", calls: 160_000, per: 1, build: func() func(int) time.Duration {
		t, err := hotset.New(hotset.DefaultParams(256))
		must(err)
		for i := uint64(0); i < 128; i++ {
			t.Evict(i * 4096)
		}
		return func(n int) time.Duration {
			// Each call evicts a page and refaults the one evicted 64 calls
			// earlier: a ghost hit at depth 64 every time.
			return timed(n, func(i int) {
				t.Evict(uint64(i+128) * 4096)
				t.Fault(uint64(i+64) * 4096)
			})
		}
	}},
	{ns: "trace.observe.ns", calls: 2_000_000, per: 1, build: func() func(int) time.Duration {
		tr := trace.New(false)
		return func(n int) time.Duration {
			return timed(n, func(i int) { tr.Observe("FAULT", i&3, time.Duration(i&0xffff)) })
		}
	}},
	{ns: "trace.emit.ns", calls: 2_000_000, per: 1, build: func() func(int) time.Duration {
		tr := trace.New(false) // histograms only: what a Host gives an SLO tenant
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				tr.Emit("FAULT.remote", i&3, uint64(i)<<12, time.Duration(i), time.Duration(i&0xffff), "")
			})
		}
	}},
	{ns: "stats.hist_add.ns", calls: 4_000_000, per: 1, build: func() func(int) time.Duration {
		h := &stats.Histogram{}
		return func(n int) time.Duration {
			d := timed(n, func(i int) { h.Add(time.Duration(i & 0xfffff)) })
			sink += h.Count()
			return d
		}
	}},
	planRow("arbiter.plan8.ns", "", func() arbiter.Planner { return arbiter.DefaultPolicy(1024, 8) }),
	planRow("market.plan8.ns", "market.plan8.allocs", func() arbiter.Planner {
		m, err := market.New(market.DefaultConfig(1024, 8))
		must(err)
		return m
	}),
	{ns: "loadgen.arrival_next.ns", allocs: "loadgen.arrival_next.allocs", calls: 50_000, per: 1,
		build: func() func(int) time.Duration {
			arr := loadgen.NewArrivals(loadgen.ArrivalConfig{
				Process: loadgen.Poisson,
				Curve:   loadgen.DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond},
				Seed:    1,
			}, 0, time.Hour)
			return func(n int) time.Duration {
				return timed(n, func(int) {
					at, ok := arr.Next()
					if !ok {
						panic("ledger: arrival stream ran dry")
					}
					sink += uint64(at)
				})
			}
		}},
}

const uffdBatch = 512

func newLedgerFD() (*uffd.FD, []byte) {
	fd := uffd.New(uffd.DefaultParams(), 1)
	_, err := fd.Register(ledgerBase, uffdBatch*uffd.PageSize, 1)
	must(err)
	return fd, ledgerPage()
}

// uffdInstallRow times install calls alone: pages are installed in batches
// with the clock running and dropped again with it stopped.
func uffdInstallRow(name string, install func(fd *uffd.FD, addr uint64, page []byte) error) ledgerRow {
	return ledgerRow{ns: name, calls: 256_000, per: 1, build: func() func(int) time.Duration {
		fd, page := newLedgerFD()
		return func(n int) time.Duration {
			var total time.Duration
			for done := 0; done < n; done += uffdBatch {
				total += timed(uffdBatch, func(i int) {
					must(install(fd, ledgerBase+uint64(i)*uffd.PageSize, page))
				})
				for i := uint64(0); i < uffdBatch; i++ {
					fd.Drop(ledgerBase + i*uffd.PageSize)
				}
			}
			return total
		}
	}}
}

// runLedger drives every row and returns the metrics by name. scale divides
// the call counts, for the tests.
func runLedger(scale int) map[string]float64 {
	out := make(map[string]float64)
	for _, row := range ledgerRows {
		// Whole batches, for the rows that install pages a batch at a time.
		calls := row.calls / scale / uffdBatch * uffdBatch
		if calls < uffdBatch {
			calls = uffdBatch
		}
		bestNs, bestAllocs := -1.0, -1.0
		for trial := 0; trial < ledgerTrials; trial++ {
			loop := row.build()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			elapsed := loop(calls)
			runtime.ReadMemStats(&after)
			ns := float64(elapsed) / float64(calls) / row.per
			allocs := float64(after.Mallocs-before.Mallocs) / float64(calls)
			if bestNs < 0 || ns < bestNs {
				bestNs = ns
			}
			if bestAllocs < 0 || allocs < bestAllocs {
				bestAllocs = allocs
			}
		}
		out[row.ns] = bestNs
		if row.allocs != "" {
			out[row.allocs] = bestAllocs
		}
	}
	return out
}
