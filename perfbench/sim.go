package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// Kernel sets. The stall-bound set spends 82% of its base cycles stalled,
// the issue-bound set 49% (cycle-weighted, base model).
var (
	stallKernels = []string{"181.mcf", "183.equake", "197.parser", "254.gap", "255.vortex"}
	ilpKernels   = []string{"099.go", "129.compress", "130.li", "175.vpr", "300.twolf"}
	shortKernels = []string{"099.go", "129.compress", "130.li", "300.twolf"}
)

// phase is what one timed window measured. On the sim workloads each
// latency and throughput sample carries the probe time measured before it
// (see probe.go); the multi-threaded workloads leave the probes nil.
type phase struct {
	opMS        []float64 // host latency of an operation (sim: one sample per pass)
	opProbe     []float64 // probe ns for each opMS sample
	minstr      []float64 // simulated Minstr per host second, one sample per repeat
	minstrProbe []float64 // probe ns for each minstr sample
	allocs      []float64 // heap allocations per simulation, one sample per repeat (sim only)
}

// kernelSet holds a workload's programs and their functional references,
// built in set-up.
type kernelSet struct {
	names   []string
	progs   map[string]*program.Program
	refs    map[string]*core.Reference
	buildMS float64 // first Program() over the set
}

// loadKernels builds (Program) and, if withRefs, references each kernel.
func loadKernels(names []string, withRefs bool, tr *tracer) (*kernelSet, error) {
	ks := &kernelSet{names: names, progs: map[string]*program.Program{}, refs: map[string]*core.Reference{}}
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		id := tr.begin("Program", n, 0, 0)
		t0 := time.Now()
		ks.progs[n] = b.Program()
		ks.buildMS += float64(time.Since(t0)) / float64(time.Millisecond)
		tr.end(id)
	}
	if withRefs {
		for _, n := range names {
			id := tr.begin("ComputeReference", n, 0, 0)
			ref, err := core.ComputeReference(ks.progs[n], core.DefaultConfig().MaxCycles)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", n, err)
			}
			ks.refs[n] = ref
		}
	}
	return ks, nil
}

// cellKey names one simulation cell: model, kernel and (non-default) CQ
// size.
type cellKey struct {
	Model string
	Bench string
	CQ    int // 0 = Table 1 default
}

func (k cellKey) String() string {
	if k.CQ != 0 {
		return fmt.Sprintf("%s/%s/cq%d", k.Model, k.Bench, k.CQ)
	}
	return k.Model + "/" + k.Bench
}

func (k cellKey) config() core.Config {
	cfg := core.DefaultConfig()
	if k.CQ != 0 {
		cfg.CQSize = k.CQ
	}
	return cfg
}

func modelByName(name string) core.Model {
	for i, m := range core.Models() {
		if modelNames[i] == name {
			return m
		}
	}
	panic("perfbench: unknown model " + name)
}

// cellResult is one measured simulation.
type cellResult struct {
	run    *stats.Run
	dur    time.Duration
	allocs float64
}

// simulate runs one cell verified against ref (nil = the service path's
// own verification is not wanted and the run is unverified), measuring its
// host time and heap allocations. When traced, it opens a Simulate span
// and carries pprof labels {workload, model, bench}.
func simulate(ctx context.Context, wl string, k cellKey, prog *program.Program, ref *core.Reference, tr *tracer, parent int64) (cellResult, error) {
	opts := []core.Option{core.WithConfig(k.config())}
	if ref != nil {
		opts = append(opts, core.WithReference(ref))
	}
	var res cellResult
	var err error
	body := func(ctx context.Context) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res.run, err = core.Simulate(ctx, modelByName(k.Model), prog, opts...)
		res.dur = time.Since(t0)
		runtime.ReadMemStats(&after)
		res.allocs = float64(after.Mallocs - before.Mallocs)
	}
	if tr == nil {
		body(ctx)
		return res, err
	}
	id := tr.begin("Simulate", k.String(), parent, 1)
	pprof.Do(ctx, pprof.Labels("workload", wl, "model", k.Model, "bench", k.Bench), body)
	tr.end(id)
	return res, err
}

// simWorkload is sim-stall and sim-ilp: one goroutine simulating every
// (model, kernel) cell, verified against the shared reference, in a
// seed-shuffled order per pass.
type simWorkload struct {
	name string
	ks   *kernelSet
	rng  *rand.Rand

	// cells holds the first result of each cell; every later pass must
	// reproduce its cycles and instructions exactly.
	cells  map[cellKey]*stats.Run
	durs   map[cellKey][]float64 // host seconds per pass
	allocs map[cellKey][]float64 // allocations per pass
}

func newSimWorkload(name string, kernels []string, seed int64) *simWorkload {
	return &simWorkload{
		name: name, ks: &kernelSet{names: kernels},
		rng:   rand.New(rand.NewSource(seed)),
		cells: map[cellKey]*stats.Run{}, durs: map[cellKey][]float64{}, allocs: map[cellKey][]float64{},
	}
}

func (w *simWorkload) kernels() *kernelSet { return w.ks }

func (w *simWorkload) setup(ctx context.Context, tr *tracer) error {
	ks, err := loadKernels(w.ks.names, true, tr)
	if err != nil {
		return err
	}
	w.ks = ks
	return nil
}

func (w *simWorkload) cellKeys() []cellKey {
	var keys []cellKey
	for _, b := range w.ks.names {
		for _, m := range modelNames {
			keys = append(keys, cellKey{Model: m, Bench: b})
		}
	}
	return keys
}

// measure runs whole passes until the window has elapsed.
func (w *simWorkload) measure(ctx context.Context, res *results, window time.Duration, tr *tracer, _ int) (*phase, error) {
	ph := &phase{}
	keys := w.cellKeys()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		pid := tr.begin("pass", fmt.Sprintf("%s#%d", w.name, pass), 0, 1)
		var instr int64
		var busy time.Duration
		var passAllocs float64
		var probes, passOps []float64
		for _, k := range keys {
			probes = append(probes, probe())
			res.attempted++
			cr, err := simulate(ctx, w.name, k, w.ks.progs[k.Bench], w.ks.refs[k.Bench], tr, pid)
			if err != nil {
				res.fail("%s: %v", k, err)
				continue
			}
			if first, ok := w.cells[k]; !ok {
				w.cells[k] = cr.run
			} else if first.Cycles != cr.run.Cycles || first.Instructions != cr.run.Instructions {
				res.fail("%s: pass %d gave %d cycles/%d instructions, first pass %d/%d",
					k, pass, cr.run.Cycles, cr.run.Instructions, first.Cycles, first.Instructions)
			}
			instr += cr.run.Instructions
			busy += cr.dur
			passOps = append(passOps, ms(cr.dur))
			w.durs[k] = append(w.durs[k], cr.dur.Seconds())
			w.allocs[k] = append(w.allocs[k], cr.allocs)
			passAllocs += cr.allocs
		}
		tr.end(pid)
		// A pass's median cell averages the two middle cells of a fixed mix;
		// the median over all cells of all passes would jump between them.
		if len(passOps) > 0 {
			pm := median(probes)
			ph.opMS, ph.opProbe = append(ph.opMS, median(passOps)), append(ph.opProbe, pm)
			ph.minstr = append(ph.minstr, float64(instr)/1e6/busy.Seconds())
			ph.minstrProbe = append(ph.minstrProbe, pm)
			ph.allocs = append(ph.allocs, passAllocs/float64(len(passOps)))
		}
	}
	if len(ph.allocs) > 1 { // the first pass is the warm-up for allocation counts
		ph.allocs = ph.allocs[1:]
	}
	return ph, nil
}

// check sets sim_cycles and speedup_2p from the recorded cells; the cells
// themselves were verified as they ran.
func (w *simWorkload) check(ctx context.Context, res *results) error {
	var cycles int64
	var speedups []float64
	for _, b := range w.ks.names {
		for _, m := range modelNames {
			if r := w.cells[cellKey{Model: m, Bench: b}]; r != nil {
				cycles += r.Cycles
			}
		}
		base, twoP := w.cells[cellKey{Model: "base", Bench: b}], w.cells[cellKey{Model: "2P", Bench: b}]
		if base != nil && twoP != nil {
			speedups = append(speedups, float64(base.Cycles)/float64(twoP.Cycles))
		}
	}
	res.set("sim_cycles", float64(cycles))
	res.set("speedup_2p", geomean(speedups))
	return nil
}

// layers sets the core.* and stats.* per-layer metrics from the cells.
func (w *simWorkload) layers(ctx context.Context, res *results, tr *tracer) error {
	for _, m := range modelNames {
		var agg modelAgg
		for _, b := range w.ks.names {
			k := cellKey{Model: m, Bench: b}
			if r := w.cells[k]; r != nil {
				agg.add(r, median(w.durs[k]), median(w.allocs[k]))
			}
		}
		agg.set(res, m, true)
	}
	return nil
}

// modelAgg sums one model's cells into its core.* and stats.* metrics.
type modelAgg struct {
	cycles, instr, loadStall, stall int64
	seconds, allocs                 float64
	n                               int
}

func (a *modelAgg) add(r *stats.Run, seconds, allocs float64) {
	a.cycles += r.Cycles
	a.instr += r.Instructions
	a.stall += r.StallCycles()
	a.loadStall += r.MemStallCycles()
	a.seconds += seconds
	a.allocs += allocs
	a.n++
}

func (a *modelAgg) set(res *results, m string, withAllocs bool) {
	if a.n == 0 {
		return
	}
	res.set("core."+m+".cycles", float64(a.cycles))
	if a.seconds > 0 {
		res.set("core."+m+".minstr_per_s", float64(a.instr)/1e6/a.seconds)
		res.set("core."+m+".ns_per_cycle", a.seconds*1e9/float64(a.cycles))
	}
	if withAllocs {
		res.set("core."+m+".allocs_per_run", a.allocs/float64(a.n))
	}
	res.set("stats."+m+".stall_share", float64(a.stall)/float64(a.cycles))
	res.set("stats."+m+".load_stall_share", float64(a.loadStall)/float64(a.cycles))
}

func (w *simWorkload) close() {}
