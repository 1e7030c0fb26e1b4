// Command perfbench is the repository's benchmark: it drives the simulator,
// the serving stack and the figure6 pipeline through their public entry
// points, checks every output, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) as one JSON object on its last line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload sim-stall --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchWorkload is one workload: set-up (timed as setup_s), a timed window,
// output checks that also set the deterministic metrics, and the traced
// run's workload-specific per-layer metrics.
type benchWorkload interface {
	kernels() *kernelSet
	setup(ctx context.Context, tr *tracer) error
	// measure runs the workload for at least window (and at least one
	// operation). A workload whose traced run reports a tail percentile
	// (serve-mixed's fresh jobs) keeps going until that population holds
	// tailSamples samples.
	measure(ctx context.Context, res *results, window time.Duration, tr *tracer, tailSamples int) (*phase, error)
	check(ctx context.Context, res *results) error
	layers(ctx context.Context, res *results, tr *tracer) error
	close()
}

var workloadNames = []string{"sim-stall", "sim-ilp", "serve-mixed", "figure6"}

func newWorkload(name string, seed int64, dir string) (benchWorkload, error) {
	switch name {
	case "sim-stall":
		return newSimWorkload(name, stallKernels, seed), nil
	case "sim-ilp":
		return newSimWorkload(name, ilpKernels, seed), nil
	case "serve-mixed":
		return newServeWorkload(seed), nil
	case "figure6":
		return newFigure6Workload(filepath.Join(dir, fmt.Sprintf("figure6-%d", os.Getpid()))), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// setupProbes is how many probes run back to back before each set-up.
const setupProbes = 10

// setupRepeats is how many times set-up runs per benchmark run (in fresh
// child processes, since programs are built once per process, plus the
// parent's own); setup_s is their median.
const setupRepeats = 5

// deadline bounds one benchmark run.
const deadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 15, "seconds to measure")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out       = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and scratch stores")
		setupOnly = flag.Bool("setup-only", false, "run set-up once, print its seconds and exit")
	)
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	if *setupOnly {
		pm := probeMedian(setupProbes)
		t0 := time.Now()
		err := w.setup(ctx, nil)
		d := time.Since(t0)
		w.close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Printf("setup_s %.9f probe_ns %.0f\n", d.Seconds(), pm)
		return 0
	}

	res, err := bench(ctx, w, *name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	decls, zero := endToEnd, false
	if *traceFlag == 1 {
		decls, zero = perLayer(), true
	}
	metrics, err := res.emit(decls, zero)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(os.Stdout, *name, *seed, *seconds, *traceFlag, res, decls)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench sets up, measures, checks and (when traced) attributes one run.
func bench(ctx context.Context, w benchWorkload, name string, seed int64, window time.Duration, traced bool, out string) (*results, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	res := newResults()
	setups, probes, err := childSetups(ctx, name, seed, out)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	probes = append(probes, probeMedian(setupProbes))
	t0 := time.Now()
	err = w.setup(ctx, tr)
	setups = append(setups, time.Since(t0).Seconds())
	defer w.close()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.setSampled("setup_s", scaled(setups, probes, false))
	res.setSampled("raw.setup_s", setups)
	res.probes = append(res.probes, probes...)

	if !traced {
		ph, err := w.measure(ctx, res, window, nil, 0)
		if err != nil {
			return nil, err
		}
		setPhase(res, ph)
		if err := w.check(ctx, res); err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", peakRSSMB())
		res.set("host.probe_ms", median(res.probes)/1e6)
		return res, nil
	}

	untraced, err := w.measure(ctx, res, window/4, nil, 0)
	if err != nil {
		return nil, err
	}
	setPhase(res, untraced) // for the raw.* and host.* per-layer metrics
	res.set("host.probe_ms", median(res.probes)/1e6)
	profPath := filepath.Join(out, fmt.Sprintf("%s-seed%d.pprof", name, seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	traced1, err := w.measure(ctx, res, window, tr, samplesForTail(0.9))
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// Overhead compares host time per simulated instruction, which a job
	// mix or stage order moves less than per-operation latency does.
	res.set("trace.overhead_share", median(untraced.minstr)/median(traced1.minstr)-1)
	if err := w.check(ctx, res); err != nil {
		return nil, err
	}
	if err := w.layers(ctx, res, tr); err != nil {
		return nil, err
	}
	if err := layerMicro(res, w.kernels(), seed); err != nil {
		return nil, err
	}
	prof, err := readCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	for _, p := range cpuPackages {
		res.set("cpu_share."+p.key, prof.selfShare(p.pkg))
	}
	for _, h := range cpuHotSpots {
		res.set("cpu_share."+h.key, prof.cumShare(h.fn))
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, l := range spanLayers {
		res.set("self_s."+l.key, self[l.span])
	}
	res.set("trace.spans", float64(len(spans)))
	tracePath := filepath.Join(out, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %s\nprofile: %s\n", tracePath, profPath)
	return res, nil
}

// setPhase sets the timed end-to-end metrics from one untraced window, in
// reference-host units, and keeps the raw values beside them.
func setPhase(res *results, ph *phase) {
	res.setSampled("sim_minstr_per_s", scaled(ph.minstr, ph.minstrProbe, true))
	res.setSampled("op_p50_ms", scaled(ph.opMS, ph.opProbe, false))
	res.setSampled("raw.sim_minstr_per_s", ph.minstr)
	res.setSampled("raw.op_p50_ms", ph.opMS)
	res.probes = append(res.probes, ph.minstrProbe...)
	if len(ph.allocs) > 0 {
		res.setSampled("allocs_per_sim", ph.allocs)
	}
}

// scaled converts raw host-time samples to reference-host units with the
// probe time measured before each: a rate is multiplied by probe/ref, a
// duration by ref/probe. Without probes it returns raw unchanged.
func scaled(raw, probeNS []float64, rate bool) []float64 {
	if probeNS == nil {
		return raw
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		if rate {
			out[i] = v * probeNS[i] / refProbeNS
		} else {
			out[i] = v * refProbeNS / probeNS[i]
		}
	}
	return out
}

// childSetups times set-up in setupRepeats-1 fresh processes of this
// binary, one after another, and returns each set-up's seconds and the
// probe time measured just before it.
func childSetups(ctx context.Context, name string, seed int64, out string) (secs, probes []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupRepeats-1; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", name,
			"--seed", strconv.FormatInt(seed, 10), "--out", out)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up child: %w", err)
		}
		var s, p float64
		if _, err := fmt.Sscanf(string(b), "setup_s %g probe_ns %g", &s, &p); err != nil {
			return nil, nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		secs, probes = append(secs, s), append(probes, p)
	}
	return secs, probes, nil
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance is printed with every result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	HostProbe  float64 `json:"host_probe_ms"`
	Revision   string  `json:"vcs_revision"`
	Modified   string  `json:"vcs_modified"`
	Caveat     string  `json:"caveat"`
}

func buildProvenance(name string, seed int64, seconds, trace int) provenance {
	p := provenance{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Modified: "unknown",
		Caveat: "the timing model is unvalidated against hardware and runs synthetic kernels that mimic the paper's SPEC benchmarks",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// paperRef is printed beside speedup_2p: the paper's figure and this
// repository's full-suite figures from EXPERIMENTS.md.
const paperRef = "paper: 2P geomean speed-up over base ≈1.1 and 2Pre/2P 1.08; this model over the full suite: 1.34 and 1.047"

// report prints provenance, each metric with its unit and spread, and the
// paper reference, ahead of the result line.
func report(f *os.File, name string, seed int64, seconds, trace int, res *results, decls []metricDecl) {
	p := buildProvenance(name, seed, seconds, trace)
	p.HostProbe = res.values["host.probe_ms"]
	prov, err := json.Marshal(p)
	if err == nil {
		fmt.Fprintf(f, "provenance %s\n", prov)
	}
	for _, d := range decls {
		line := fmt.Sprintf("%-34s %14.6g %s", d.Name, res.values[d.Name], d.Unit)
		if s, ok := res.spreads[d.Name]; ok && s.N > 0 {
			line += fmt.Sprintf("   (n=%d median=%.6g q1=%.6g q3=%.6g)", s.N, s.Median, s.Q1, s.Q3)
		}
		if raw, ok := res.values["raw."+d.Name]; ok {
			line += fmt.Sprintf("   [raw %.6g]", raw)
		}
		if d.Name == "speedup_2p" {
			line += "   [" + paperRef + "]"
		}
		fmt.Fprintln(f, line)
	}
	keys := make([]string, 0, len(res.spreads))
	for k := range res.spreads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	spreads := make(map[string]Summary, len(keys))
	for _, k := range keys {
		spreads[k] = res.spreads[k]
	}
	if b, err := json.Marshal(spreads); err == nil {
		fmt.Fprintf(f, "spreads %s\n", b)
	}
}
