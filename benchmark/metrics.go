package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. The tables below are
// the source: `fmbench -describe` prints BENCHMARK.json from them and a test
// holds the committed file to that output.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// virtual reports whether the metric is measured in simulated time, and so
// must repeat exactly for a commit and a seed.
func (m metricDef) virtual() bool { return strings.HasPrefix(m.name, "virt_") }

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures.
const runSeconds = 20

// endToEnd is what a user of the simulator sees. Every workload reports every
// one of them; "virt" is simulated time, a function of commit and seed alone,
// and the rest is the host's.
//
// virt_op_p99_us and virt_throughput_per_sec mean, on each workload, that
// workload's own tail and its own application rate (README.md has the
// table), because the driver takes the same metric list for all workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_ops_per_sec", "ops/s", higher, 0.25},
	{"host_mem_mb", "MiB", lower, 0.06},
	{"virt_op_mean_us", "us", lower, 0.03},
	{"virt_op_p99_us", "us", lower, 0.03},
	{"virt_throughput_per_sec", "1/s", higher, 0.03},
}

// perLayer is the ledger of single layers: counts read from the public
// Stats/Report surfaces, wall-clock spans recorded around calls into each
// layer, and isolated drives of each layer's exported functions. A metric
// that does not apply to a workload reads 0 there.
var perLayer = layerDefs(`
virt_op_p50_us us lower
virt_op_p999_us us lower
virt_teps edges/s higher
virt_goodput_per_sec.x4 ops/s higher
virt_knee_rate_per_sec ops/s higher
virt_err_vs_paper_pct % lower
failed_ops_pct % lower

core.faults count lower
core.first_touch count lower
core.remote_reads count lower
core.steals count higher
core.inflight_waits count lower
core.evictions count lower
core.flushes count lower
core.clean_dropped count higher
core.zero_elided count higher
core.wp_faults count lower
core.hit_pct % higher
core.writeback.flushed_pages count lower
core.writeback.coalesced count higher
core.writeback.pages_per_flush pages higher
kvstore.gets count lower
kvstore.puts count lower
kvstore.multiputs count lower
kvstore.multigets count lower
kvstore.misses count lower
kvstore.bytes_stored_mb MiB lower
kvstore.cluster.failovers count lower
kvstore.cluster.partial_puts count lower
kvstore.cluster.stale_rejects count lower
kvstore.cluster.refreshes count lower
kvstore.cluster.rereplicated count lower
kvstore.cluster.recover.virt_ms ms lower
core.resilience.ops count lower
core.resilience.retries count lower
core.resilience.slow_ops count lower
core.resilience.deadline_exceeded count lower
host.epochs count lower
host.moves count lower
host.slo_windows count lower
host.slo_violations count lower
loadgen.offered_ops count higher
loadgen.sojourn_p99_us.x1 us lower
loadgen.sojourn_p99_us.x2 us lower
loadgen.sojourn_p99_us.x4 us lower
loadgen.queue_max.x4 count lower
loadgen.backlog_ms.x4 ms lower
graph500.accesses count lower
graph500.traversal_virt_ms ms lower
graph500.construction_virt_ms ms lower
runtime.allocs_per_kop 1/kop lower
runtime.alloc_bytes_per_op B/op lower
runtime.gc_cycles count lower

fluidmem.touch.calls count lower
fluidmem.touch.wall_ns_p50 ns lower
fluidmem.touch.wall_ns_p99 ns lower
fluidmem.touch.self_ns_per_op ns lower
kvstore.get.calls count lower
kvstore.get.wall_ns ns lower
kvstore.startget.calls count lower
kvstore.startget.wall_ns ns lower
kvstore.multiget.calls count lower
kvstore.multiget.wall_ns ns lower
kvstore.put.calls count lower
kvstore.put.wall_ns ns lower
kvstore.multiput.calls count lower
kvstore.multiput.wall_ns ns lower
kvstore.busy_pct % lower
kvstore.cluster.crash.wall_ms ms lower
kvstore.cluster.recover.wall_ms ms lower
loadgen.run.wall_s.x1 s lower
loadgen.run.wall_s.x2 s lower
loadgen.run.wall_s.x4 s lower
loadgen.run.wall_s.static_x1 s lower
graph500.run.wall_s s lower
harness.wall_ns_per_op ns lower
harness.trace_overhead_pct % lower

calib.spin_ns ns lower
clock.rand_norm.ns ns lower
clock.latency_sample.ns ns lower
clock.device_submit.ns ns lower
clock.sched_push_pop.ns ns lower
clock.sched_push_pop.allocs 1/op lower
simnet.send_deliver.ns ns lower
simnet.send_deliver.allocs 1/op lower
raft.commit.ns ns lower
kvstore.dram.get.ns ns lower
kvstore.dram.put.ns ns lower
kvstore.dram.multiput32.ns_per_page ns lower
kvstore.ramcloud.get.ns ns lower
kvstore.ramcloud.put.ns ns lower
kvstore.ramcloud.multiput32.ns_per_page ns lower
kvstore.ramcloud.multiget8.ns_per_page ns lower
kvstore.memcached.get.ns ns lower
kvstore.memcached.put.ns ns lower
kvstore.replicated.get.ns ns lower
kvstore.replicated.multiput32.ns_per_page ns lower
kvstore.cluster.get.ns ns lower
kvstore.cluster.multiput32.ns_per_page ns lower
kvstore.cluster.get.allocs 1/op lower
uffd.access_hit.ns ns lower
uffd.zeropage.ns ns lower
uffd.copy.ns ns lower
uffd.remap.ns ns lower
vm.touch_hit.ns ns lower
core.touch_miss.ns ns lower
core.touch_miss.allocs 1/op lower
hotset.fault_evict.ns ns lower
trace.observe.ns ns lower
trace.emit.ns ns lower
stats.hist_add.ns ns lower
arbiter.plan8.ns ns lower
market.plan8.ns ns lower
market.plan8.allocs 1/op lower
loadgen.arrival_next.ns ns lower
loadgen.arrival_next.allocs 1/op lower
`)

// layerDefs parses "name unit better" lines.
func layerDefs(table string) []metricDef {
	var defs []metricDef
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 {
			defs = append(defs, metricDef{name: f[0], unit: f[1], better: f[2]})
		}
	}
	return defs
}

// benchmarkJSON renders BENCHMARK.json from the tables.
func benchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
