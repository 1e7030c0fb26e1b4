package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/experiments"
	"fleaflicker/internal/fleaflow"
	"fleaflicker/internal/workload"
)

// figure6Workload runs fleaflow's figure6 pipeline against an empty
// artifact store on every repeat, with Parallelism = host CPUs.
type figure6Workload struct {
	dir string // parent of the per-repeat stores
	ks  *kernelSet

	stages    map[string][]float64 // seconds per stage, latest phase
	runs      []float64            // cold wall seconds, latest phase
	lastStore string               // the latest cold store, kept for the warm rerun
	agg       *experiments.SuiteRuns
	pipe      *fleaflow.Pipeline
	timer     *stageTimer // the running cold run's, read by the wrapped stages
	waits     []float64   // summed stage queue wait per cold run, latest phase
	runsDone  int
	checkedAt map[cellKey]int64 // per-cell cycles of every cold run's aggregate
	checkRuns map[cellKey]cellResult
}

func newFigure6Workload(dir string) *figure6Workload {
	var names []string
	for _, b := range workload.Suite() {
		names = append(names, b.Name)
	}
	return &figure6Workload{dir: dir, ks: &kernelSet{names: names}, checkedAt: map[cellKey]int64{}}
}

func (w *figure6Workload) kernels() *kernelSet { return w.ks }

// setup builds every program (Program caches per process, so every cold
// repeat then measures the pipeline, not the assembler) and the store root.
func (w *figure6Workload) setup(ctx context.Context, tr *tracer) error {
	ks, err := loadKernels(w.ks.names, false, tr)
	if err != nil {
		return err
	}
	w.ks = ks
	w.pipe = timedFigure6(&w.timer)
	return os.MkdirAll(w.dir, 0o755)
}

// stageTimer times one cold run's stages. The benchmark wraps every
// stage's Run function, so a stage's time is its execution alone; the
// Observer's running event marks dispatch to the engine's worker queue, so
// dispatch-to-start is the stage's queue wait. When traced, each execution
// is a span under the run's span.
type stageTimer struct {
	mu       sync.Mutex
	dispatch map[string]time.Time
	exec     map[string]time.Duration
	wait     time.Duration
	tr       *tracer
	parent   int64
	lanes    []bool // busy display rows in the Chrome trace
}

func newStageTimer(tr *tracer, parent int64) *stageTimer {
	return &stageTimer{dispatch: map[string]time.Time{}, exec: map[string]time.Duration{}, tr: tr, parent: parent}
}

func (s *stageTimer) observe(ev fleaflow.Event) {
	if ev.Status != fleaflow.StatusRunning {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatch[ev.Stage] = time.Now()
}

// start notes that a stage began executing and returns its display row.
func (s *stageTimer) start(name string, t0 time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.dispatch[name]; ok {
		s.wait += t0.Sub(d)
	}
	for i, busy := range s.lanes {
		if !busy {
			s.lanes[i] = true
			return i + 1
		}
	}
	s.lanes = append(s.lanes, true)
	return len(s.lanes)
}

func (s *stageTimer) finish(name string, lane int, t0, t1 time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exec[name] = t1.Sub(t0)
	s.lanes[lane-1] = false
	s.tr.record("stage", name, s.parent, lane, t0, t1)
}

// timedFigure6 builds the figure6 pipeline with every stage's Run wrapped
// to report to *cur. Stage names, definitions and dependencies are
// untouched, so artifact keys are those of the unwrapped pipeline.
func timedFigure6(cur **stageTimer) *fleaflow.Pipeline {
	p := fleaflow.Figure6(fleaflow.Env{})
	for _, st := range p.Stages {
		name, run := st.Name, st.Run
		st.Run = func(ctx context.Context, in *fleaflow.Inputs) (any, error) {
			timer := *cur
			t0 := time.Now()
			lane := timer.start(name, t0)
			var v any
			var err error
			if timer.tr == nil {
				v, err = run(ctx, in)
			} else {
				pprof.Do(ctx, pprof.Labels("workload", "figure6", "model", "all", "bench", name), func(ctx context.Context) {
					v, err = run(ctx, in)
				})
			}
			timer.finish(name, lane, t0, time.Now())
			return v, err
		}
	}
	return p
}

// coldRun runs figure6 once into a fresh store and returns its report,
// store, wall time and stage timer.
func (w *figure6Workload) coldRun(ctx context.Context, tr *tracer) (*fleaflow.Report, string, time.Duration, *stageTimer, error) {
	store, err := os.MkdirTemp(w.dir, "store-")
	if err != nil {
		return nil, "", 0, nil, err
	}
	st, err := fleaflow.OpenStore(store)
	if err != nil {
		return nil, store, 0, nil, err
	}
	rid := tr.begin("figure6", filepath.Base(store), 0, 0)
	w.timer = newStageTimer(tr, rid)
	timer := w.timer
	var rep *fleaflow.Report
	t0 := time.Now()
	rep, err = fleaflow.Run(ctx, w.pipe, fleaflow.Options{Store: st, Parallelism: runtime.NumCPU(), Observer: timer.observe})
	wall := time.Since(t0)
	tr.end(rid)
	return rep, store, wall, timer, err
}

// measure repeats cold runs until the window has elapsed; it runs at least
// one.
func (w *figure6Workload) measure(ctx context.Context, res *results, window time.Duration, tr *tracer, _ int) (*phase, error) {
	ph := &phase{}
	w.stages = map[string][]float64{}
	w.runs, w.waits = nil, nil
	start := time.Now()
	for runs := 0; runs == 0 || time.Since(start) < window; runs++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, store, wall, timer, err := w.coldRun(ctx, tr)
		if timer == nil {
			return nil, fmt.Errorf("creating a figure6 store: %w", err)
		}
		res.attempted++
		if err == nil {
			err = rep.Err()
		}
		if err == nil && (rep.Failed != 0 || rep.Parked != 0) {
			err = fmt.Errorf("%d stages failed, %d parked", rep.Failed, rep.Parked)
		}
		if err == nil {
			err = w.recordAggregate(store, rep)
		}
		if err != nil {
			res.fail("figure6 run %d: %v", w.runsDone, err)
		}
		w.runsDone++
		if w.lastStore != "" {
			os.RemoveAll(w.lastStore)
		}
		w.lastStore = store
		if err == nil {
			var instr int64
			for _, b := range w.agg.Benchmarks {
				for _, r := range w.agg.Runs[b] {
					instr += r.Instructions
				}
			}
			ph.minstr = append(ph.minstr, float64(instr)/1e6/wall.Seconds())
			ph.opMS = append(ph.opMS, ms(wall))
		}
		w.runs = append(w.runs, wall.Seconds())
		w.waits = append(w.waits, timer.wait.Seconds())
		for name, d := range timer.exec {
			w.stages[name] = append(w.stages[name], d.Seconds())
		}
	}
	return ph, nil
}

// recordAggregate reads the run's suite aggregate and requires every cell's
// cycles to match earlier runs.
func (w *figure6Workload) recordAggregate(store string, rep *fleaflow.Report) error {
	st, err := fleaflow.OpenStore(store)
	if err != nil {
		return err
	}
	var agg experiments.SuiteRuns
	if err := st.Get(rep.Key("aggregate"), &agg); err != nil {
		return fmt.Errorf("reading the aggregate: %w", err)
	}
	for _, b := range agg.Benchmarks {
		for i, m := range core.Models() {
			r := agg.Get(b, m)
			if r == nil {
				return fmt.Errorf("aggregate lacks %s/%s", modelNames[i], b)
			}
			k := cellKey{Model: modelNames[i], Bench: b}
			if prev, ok := w.checkedAt[k]; ok && prev != r.Cycles {
				return fmt.Errorf("%s: %d cycles, an earlier run gave %d", k, r.Cycles, prev)
			}
			w.checkedAt[k] = r.Cycles
		}
	}
	w.agg = &agg
	return nil
}

// check requires figure6's base and 2P cycles to equal verified in-process
// runs of the same cells, and sets the deterministic metrics (allocations
// per simulation from those in-process runs).
func (w *figure6Workload) check(ctx context.Context, res *results) error {
	if w.agg == nil {
		return fmt.Errorf("no figure6 run completed")
	}
	var cycles int64
	var speedups, allocs []float64
	w.checkRuns = map[cellKey]cellResult{}
	for _, b := range w.agg.Benchmarks {
		for _, m := range core.Models() {
			cycles += w.agg.Get(b, m).Cycles
		}
		prog := w.ks.progs[b]
		ref, err := core.ComputeReference(prog, core.DefaultConfig().MaxCycles)
		if err != nil {
			return fmt.Errorf("reference %s: %w", b, err)
		}
		var pair [2]int64
		for i, m := range []string{"base", "2P"} {
			cr, err := simulate(ctx, "figure6", cellKey{Model: m, Bench: b}, prog, ref, nil, 0)
			if err != nil {
				return fmt.Errorf("in-process %s/%s: %w", m, b, err)
			}
			if got := w.checkedAt[cellKey{Model: m, Bench: b}]; got != cr.run.Cycles {
				res.fail("figure6 %s/%s: %d cycles, in-process run %d", m, b, got, cr.run.Cycles)
			}
			pair[i] = cr.run.Cycles
			allocs = append(allocs, cr.allocs)
			w.checkRuns[cellKey{Model: m, Bench: b}] = cr
		}
		speedups = append(speedups, float64(pair[0])/float64(pair[1]))
	}
	res.set("sim_cycles", float64(cycles))
	res.set("speedup_2p", geomean(speedups))
	var sum float64
	for _, a := range allocs {
		sum += a
	}
	res.set("allocs_per_sim", sum/float64(len(allocs)))
	return nil
}

// layers sets the fleaflow per-layer metrics from the latest (traced)
// phase, core.* and stats.* from the aggregate, and times a warm rerun.
func (w *figure6Workload) layers(ctx context.Context, res *results, tr *tracer) error {
	for i, m := range core.Models() {
		var agg modelAgg
		for _, b := range w.agg.Benchmarks {
			agg.add(w.agg.Get(b, m), w.agg.Durations[b][m].Seconds(), 0)
		}
		agg.set(res, modelNames[i], false)
	}
	// Cells run concurrently inside the pipeline, so their allocations are
	// taken from the in-process check runs, which cover base and 2P only.
	for _, m := range []string{"base", "2P"} {
		var sum float64
		for _, b := range w.agg.Benchmarks {
			sum += w.checkRuns[cellKey{Model: m, Bench: b}].allocs
		}
		res.set("core."+m+".allocs_per_run", sum/float64(len(w.agg.Benchmarks)))
	}
	named := map[string]bool{}
	for _, s := range figure6Stages {
		named[s] = true
		res.set(stageMetric(s), median(w.stages[s]))
	}
	var render, sum float64
	med := map[string]float64{}
	for name, xs := range w.stages {
		m := median(xs)
		med[name] = m
		sum += m
		if !named[name] {
			render += m
		}
	}
	res.set("fleaflow.render_s", render)
	res.set("fleaflow.critical_path_s", criticalPath(w.pipe, med))
	res.set("fleaflow.parallel_efficiency", sum/(median(w.runs)*float64(runtime.NumCPU())))
	res.set("fleaflow.queue_wait_s", median(w.waits))

	st, err := fleaflow.OpenStore(w.lastStore)
	if err != nil {
		return err
	}
	w.timer = newStageTimer(nil, 0)
	t0 := time.Now()
	rep, err := fleaflow.Run(ctx, w.pipe, fleaflow.Options{Store: st, Parallelism: runtime.NumCPU()})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return fmt.Errorf("warm rerun: %w", err)
	}
	res.set("fleaflow.warm_s", time.Since(t0).Seconds())
	return nil
}

// criticalPath is the longest dependency chain of the pipeline, weighting
// each stage by its measured duration.
func criticalPath(p *fleaflow.Pipeline, dur map[string]float64) float64 {
	finish := map[string]float64{}
	var visit func(name string) float64
	byName := map[string]*fleaflow.Stage{}
	for _, s := range p.Stages {
		byName[s.Name] = s
	}
	visit = func(name string) float64 {
		if f, ok := finish[name]; ok {
			return f
		}
		var start float64
		for _, d := range byName[name].Deps {
			start = max(start, visit(d))
		}
		finish[name] = start + dur[name]
		return finish[name]
	}
	var longest float64
	for _, s := range p.Stages {
		longest = max(longest, visit(s.Name))
	}
	return longest
}

func (w *figure6Workload) close() {
	os.RemoveAll(w.dir)
}
