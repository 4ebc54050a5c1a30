package main

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. This table is the source; a test keeps BENCHMARK.json equal to
// it. Bound applies to end-to-end metrics only: the share of the
// parent's median by which a change may worsen the metric before it
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, the same
// seven on every workload. "req" is one HTTP request, or one job on
// toolchain. See README.md for definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "kB", "lower", 0.02},
	{"payload_kb_per_req", "kB", "lower", 0.02},
	{"sim_cycles_per_vec", "cycles", "lower", 0.005},
}

// perLayer are the metrics of single layers, named after the module
// they measure. They are reported with -trace 1 and have no bound.
var perLayer = []metricDef{
	{Name: "dag.read_us", Unit: "us", Better: "lower"},
	{Name: "dag.read_alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "dag.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dag.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "sched.submit_us", Unit: "us", Better: "lower"},
	{Name: "sched.linger_us", Unit: "us", Better: "lower"},
	{Name: "sched.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "sched.execute_us", Unit: "us", Better: "lower"},
	{Name: "sched.mean_batch", Unit: "count", Better: "higher"},
	{Name: "sched.linger_flush_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_stack_us", Unit: "us", Better: "lower"},
	{Name: "engine.execute_batch_us", Unit: "us", Better: "lower"},
	{Name: "sim.func_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "engine.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.store_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.evictions_per_req", Unit: "count", Better: "lower"},
	{Name: "engine.resolve_us", Unit: "us", Better: "lower"},
	{Name: "engine.compile_hit_us", Unit: "us", Better: "lower"},
	{Name: "engine.compile_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.decode_us", Unit: "us", Better: "lower"},
	{Name: "artifact.encode_us", Unit: "us", Better: "lower"},
	{Name: "artifact.bytes_per_node", Unit: "B", Better: "lower"},
	{Name: "verify.us_per_instr", Unit: "us", Better: "lower"},
	{Name: "compiler.us_per_node", Unit: "us", Better: "lower"},
	{Name: "compiler.instrs_per_node", Unit: "count", Better: "lower"},
	{Name: "compiler.spills_per_knode", Unit: "count", Better: "lower"},
	{Name: "sim.cycles_total", Unit: "cycles", Better: "lower"},
	{Name: "sim.ops_per_cycle", Unit: "count", Better: "higher"},
	{Name: "sim.cycle_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "energy.estimate_us", Unit: "us", Better: "lower"},
	{Name: "energy.edp_geomean", Unit: "pJ.ns", Better: "lower"},
	{Name: "dse.sweep48_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.mallocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runtime.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "gateway.hop_us", Unit: "us", Better: "lower"},
	{Name: "trace.forced_overhead_us", Unit: "us", Better: "lower"},
	{Name: "driver.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.samples", Unit: "count", Better: "higher"},
	{Name: "driver.client_cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "driver.server_util", Unit: "ratio", Better: "higher"},
	{Name: "driver.span_overhead_pct", Unit: "%", Better: "lower"},
}

// workloadWhy records why each workload was chosen, one line each; it
// is the `why` of BENCHMARK.json.
var workloadWhy = map[string]string{
	"serve_hot":   "4 small circuits, 1 vector per request, all compile-cache hits: execute is under a microsecond, so per-request fixed cost (HTTP, JSON, dag.Read, fingerprint, linger) is the whole bill",
	"serve_batch": "one 2399-node circuit, 256 vectors per request: batches fill at once, so float JSON and the functional evaluator dominate and fixed cost is amortised; bypasses what serve_hot stresses",
	"serve_churn": "512 circuits cycled against a 128-entry cache with an artifact store: every request is a miss served by store read, artifact decode, insert and evict; set-up is 512 cold compiles",
	"toolchain":   "the paper's offline flow in-process on the 12 Table I graphs: compile, verify, artifact round trip, cycle-accurate simulation, energy estimate, plus one 48-point design-space sweep per pass",
}
