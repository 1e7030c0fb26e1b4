package main

import (
	"fmt"
	"strings"
)

// metricDecl is one declared metric: the name BENCHMARK.json lists and the
// unit printed beside it.
type metricDecl struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run prints, on every workload.
// An "operation" is the workload's request: one verified core.Simulate
// cell (sim-*), one job from POST to terminal status (serve-mixed), one
// cold figure6 pipeline run (figure6). No tail percentile is end to end:
// a figure6 run yields a handful of operations, too few for any tail with
// ten samples beyond it; the serving tails are per-layer metrics.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"op_p50_ms", "ms"},
	{"sim_cycles", "count"},
	{"speedup_2p", "x"},
	{"allocs_per_sim", "count"},
	{"peak_rss_mb", "MB"},
}

// modelNames are the four machines in core.Models order, as metric-name
// components.
var modelNames = []string{"base", "2P", "2Pre", "runahead"}

// cpuPackages are the packages whose self time the traced run attributes,
// keyed by the metric-name suffix.
var cpuPackages = []struct{ key, pkg string }{
	{"baseline", "fleaflicker/internal/baseline"},
	{"twopass", "fleaflicker/internal/twopass"},
	{"runahead", "fleaflicker/internal/runahead"},
	{"mem", "fleaflicker/internal/mem"},
	{"pipeline", "fleaflicker/internal/pipeline"},
	{"isa", "fleaflicker/internal/isa"},
	{"stats", "fleaflicker/internal/stats"},
	{"metrics", "fleaflicker/internal/metrics"},
	{"arch", "fleaflicker/internal/arch"},
	{"service", "fleaflicker/internal/service"},
	{"cluster", "fleaflicker/internal/cluster"},
	{"net_http", "net/http"},
	{"encoding_json", "encoding/json"},
	{"runtime", "runtime"},
}

// cpuHotSpots are unexported functions the benchmark cannot call, measured
// as their cumulative share of CPU time in the traced run's profile.
var cpuHotSpots = []struct{ key, fn string }{
	{"twopass.bBlocked", "fleaflicker/internal/twopass.(*Machine).bBlocked"},
	{"twopass.canMerge", "fleaflicker/internal/twopass.(*Machine).canMerge"},
	{"baseline.groupBlocked", "fleaflicker/internal/baseline.(*Machine).groupBlocked"},
}

// figure6Stages are the figure6 stages that simulate or execute programs;
// the remaining render stages are reported together as fleaflow.render_s.
var figure6Stages = []string{
	"table2",
	"suite/099.go", "suite/129.compress", "suite/130.li", "suite/175.vpr", "suite/181.mcf",
	"suite/183.equake", "suite/197.parser", "suite/254.gap", "suite/255.vortex", "suite/300.twolf",
	"fig8", "sweep/cq", "sweep/alat", "sweep/throttle",
}

// stageMetric maps a stage name onto the metric-name alphabet.
func stageMetric(stage string) string {
	return "fleaflow.stage_s." + strings.ReplaceAll(stage, "/", ".")
}

// spanLayers maps span names to the layer their self time is charged to.
var spanLayers = []struct{ span, key string }{
	{"Program", "workload"},
	{"ComputeReference", "arch"},
	{"Simulate", "core"},
	{"SubmitJob", "client.submit"},
	{"poll", "client.poll"},
	{"job", "job_wait"},
	{"stage", "fleaflow.stage"},
	{"figure6", "fleaflow.engine"},
}

// perLayer lists the metrics every traced run prints, on every workload. A
// layer the workload does not exercise reads 0.
func perLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit string) { out = append(out, metricDecl{name, unit}) }
	for _, m := range modelNames {
		add("core."+m+".minstr_per_s", "Minstr/s")
		add("core."+m+".ns_per_cycle", "ns")
		add("core."+m+".cycles", "count")
		add("core."+m+".allocs_per_run", "count")
	}
	for _, m := range modelNames {
		add("stats."+m+".stall_share", "ratio")
		add("stats."+m+".load_stall_share", "ratio")
	}
	add("arch.ref_minstr_per_s", "Minstr/s")
	add("checkpoint.ref_ckpt_ms", "ms")
	add("workload.build_ms", "ms")
	add("mem.image_read_ns.fit", "ns")
	add("mem.image_read_ns.wide", "ns")
	add("mem.hier_load_ns.fit", "ns")
	add("mem.hier_load_ns.wide", "ns")
	add("pipeline.frontend_tick_ns", "ns")
	add("isa.sources_ns", "ns")
	add("client.submit_ms_p50", "ms")
	add("client.polls_per_job", "count")
	add("service.sim_ms_p50", "ms")
	add("service.queue_wait_ms_p50", "ms")
	add("service.queue_wait_ms_p90", "ms")
	add("service.cache_hit_ratio", "ratio")
	add("service.coalesced", "count")
	add("cluster.steal_ratio", "ratio")
	add("cluster.fed_hit_ratio", "ratio")
	add("cluster.backend_imbalance", "ratio")
	add("cluster.backpressure_retries", "count")
	add("serve.jobs_per_s", "1/s")
	add("serve.fresh_p50_ms", "ms")
	add("serve.fresh_p90_ms", "ms")
	add("serve.job_p90_ms", "ms")
	add("serve.hit_p50_ms", "ms")
	add("serve.units", "count")
	add("serve.fresh_share", "ratio")
	add("serve.hit_share", "ratio")
	add("serve.coalesced_share", "ratio")
	for _, s := range figure6Stages {
		add(stageMetric(s), "s")
	}
	add("fleaflow.render_s", "s")
	add("fleaflow.critical_path_s", "s")
	add("fleaflow.parallel_efficiency", "ratio")
	add("fleaflow.queue_wait_s", "s")
	add("fleaflow.warm_s", "s")
	for _, p := range cpuPackages {
		add("cpu_share."+p.key, "ratio")
	}
	for _, h := range cpuHotSpots {
		add("cpu_share."+h.key, "ratio")
	}
	for _, l := range spanLayers {
		add("self_s."+l.key, "s")
	}
	add("host.probe_ms", "ms")
	add("raw.setup_s", "s")
	add("raw.sim_minstr_per_s", "Minstr/s")
	add("raw.op_p50_ms", "ms")
	add("trace.overhead_share", "ratio")
	add("trace.spans", "count")
	return out
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects one run's metrics, spreads and failure counts.
type results struct {
	values    map[string]float64
	spreads   map[string]Summary
	probes    []float64 // every probe median the run took, ns
	attempted int
	failed    int
	problems  []string
}

func newResults() *results {
	return &results{values: map[string]float64{}, spreads: map[string]Summary{}}
}

func (r *results) set(name string, v float64) { r.values[name] = v }

// setSampled records the median of xs as the metric and keeps its spread.
func (r *results) setSampled(name string, xs []float64) {
	s := summarize(xs)
	r.values[name] = s.Median
	r.spreads[name] = s
}

// fail records a failed output check.
func (r *results) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// emit builds the metrics object for decls. Missing end-to-end metrics are
// a benchmark bug; missing per-layer metrics are layers the workload does
// not exercise and read 0.
func (r *results) emit(decls []metricDecl, zeroMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := r.values[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
