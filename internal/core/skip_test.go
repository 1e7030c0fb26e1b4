package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

// The machines skip stretches of stalled cycles in bulk, except while a
// tracer is attached: the event stream pins one stall event per cycle. A
// traced run is therefore the per-cycle reference for an untraced one, and
// the tests below compare the two. The sink discards every event.
func discardTracer() *trace.Tracer { return trace.New(trace.FuncSink(func(trace.Event) {})) }

// observedRun is everything a run leaves behind that skipping must not
// change.
type observedRun struct {
	stats *stats.Run
	log   *mem.StoreLog
	state *arch.State
}

func runObserved(ctx context.Context, model Model, cfg Config, prog *program.Program, tr *trace.Tracer) (observedRun, error) {
	m, err := build(model, cfg, prog)
	if err != nil {
		return observedRun{}, err
	}
	log := &mem.StoreLog{}
	m.State().Mem.Observe(log.Record)
	m.Attach(ctx, nil, tr)
	r, err := m.Run()
	return observedRun{stats: r, log: log, state: m.State()}, err
}

func checkSkipEquivalent(t *testing.T, model Model, cfg Config, prog *program.Program) {
	t.Helper()
	ctx := context.Background()
	skipped, err := runObserved(ctx, model, cfg, prog, nil)
	if err != nil {
		t.Fatalf("untraced: %v", err)
	}
	perCycle, err := runObserved(ctx, model, cfg, prog, discardTracer())
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !reflect.DeepEqual(skipped.stats, perCycle.stats) {
		t.Errorf("stats differ:\nuntraced: %+v\ntraced:   %+v", skipped.stats, perCycle.stats)
	}
	if skipped.log.Len() != perCycle.log.Len() || skipped.log.Hash() != perCycle.log.Hash() {
		t.Errorf("store logs differ: untraced (n=%d, hash=%#x) vs traced (n=%d, hash=%#x)",
			skipped.log.Len(), skipped.log.Hash(), perCycle.log.Len(), perCycle.log.Hash())
	}
	if !skipped.state.Equal(perCycle.state) {
		t.Error("final architectural states differ")
	}
}

// TestSkipMatchesPerCycle is the skip-equivalence gate on the suite: every
// kernel on every model, then the two-pass mechanism variants and a
// two-MSHR memory system (whose resource stalls are never skipped) on one
// stall-bound and one issue-bound kernel, which keeps the traced reference
// runs affordable.
func TestSkipMatchesPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite runs")
	}
	if raceEnabled {
		t.Skip("single-goroutine simulations give the race detector nothing to find, and it slows the traced runs tenfold")
	}
	twoPass := []Model{TwoPass, TwoPassRegroup}
	variantBenches := []string{"181.mcf", "300.twolf"}
	var suite []string
	for _, b := range workload.Suite() {
		suite = append(suite, b.Name)
	}
	configs := []struct {
		name    string
		benches []string
		models  []Model
		set     func(*Config)
	}{
		{"default", suite, Models(), func(*Config) {}},
		{"anticipable", variantBenches, twoPass, func(c *Config) { c.StallOnAnticipable = true }},
		{"throttle16", variantBenches, twoPass, func(c *Config) { c.DeferThrottle = 16 }},
		{"checkpointrepair", variantBenches, twoPass, func(c *Config) { c.CheckpointRepair = true }},
		{"conflictpredictor", variantBenches, twoPass, func(c *Config) { c.ConflictPredictor = true }},
		{"sb8-alat16-nofeedback", variantBenches, twoPass, func(c *Config) {
			c.SBSize, c.ALATCapacity, c.FeedbackLatency = 8, 16, -1
		}},
		{"mshr2", variantBenches, Models(), func(c *Config) { c.Mem.MaxOutstanding = 2 }},
	}
	for _, c := range configs {
		cfg := DefaultConfig()
		c.set(&cfg)
		for _, name := range c.benches {
			bench, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range c.models {
				t.Run(c.name+"/"+name+"/"+model.String(), func(t *testing.T) {
					t.Parallel()
					checkSkipEquivalent(t, model, cfg, bench.Program())
				})
			}
		}
	}
}

// TestSkipMSHRPressureForcesResourceStalls keeps the mshr2 configuration
// above meaningful: on 181.mcf it must produce resource stalls on every
// model that can have two misses in flight ahead of their first use. (The
// base machine stalls on that use first; the suite gives it none.)
func TestSkipMSHRPressureForcesResourceStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.MaxOutstanding = 2
	bench, err := workload.ByName("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{TwoPass, TwoPassRegroup, Runahead} {
		r, err := Simulate(context.Background(), model, bench.Program(), WithConfig(cfg))
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if r.ByClass[stats.ResourceStall] == 0 {
			t.Errorf("%v: no resource stalls with two MSHRs", model)
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a test can
// cancel a run at a deterministic cycle-loop check.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSkipCancellation cancels a long stall-bound run at its third
// cancellation check: skipping must neither jump past a check nor lose the
// wrapped context error, so the untraced and traced runs stop at the same
// check with the same error.
func TestSkipCancellation(t *testing.T) {
	bench, err := workload.ByName("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			var errs [2]string
			for i, tr := range []*trace.Tracer{nil, discardTracer()} {
				ctx := &countdownCtx{Context: context.Background(), n: 3}
				_, err := runObserved(ctx, model, DefaultConfig(), bench.Program(), tr)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("traced=%v: err = %v, want a wrapped context.Canceled", tr != nil, err)
				}
				if ctx.calls != ctx.n {
					t.Errorf("traced=%v: run stopped after %d checks, want %d", tr != nil, ctx.calls, ctx.n)
				}
				errs[i] = err.Error()
			}
			if errs[0] != errs[1] {
				t.Errorf("errors differ: untraced %q, traced %q", errs[0], errs[1])
			}
		})
	}
}

// TestSkipRespectsMaxCycles sets MaxCycles exactly at and one below a run's
// length: at it, the untraced run still finishes with identical stats; one
// below, the untraced and traced runs both fail with the same "exceeded N
// cycles" error, so a skip can never run past the limit.
func TestSkipRespectsMaxCycles(t *testing.T) {
	bench, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			full, err := Simulate(context.Background(), model, bench.Program())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.MaxCycles = full.Cycles
			atLimit, err := Simulate(context.Background(), model, bench.Program(), WithConfig(cfg))
			if err != nil {
				t.Fatalf("MaxCycles = run length: %v", err)
			}
			if !reflect.DeepEqual(full, atLimit) {
				t.Errorf("MaxCycles = run length changed the stats:\nfree:    %+v\nlimited: %+v", full, atLimit)
			}

			cfg.MaxCycles = full.Cycles - 1
			var errs [2]string
			for i, tr := range []*trace.Tracer{nil, discardTracer()} {
				_, err := runObserved(context.Background(), model, cfg, bench.Program(), tr)
				if err == nil || !strings.Contains(err.Error(), "exceeded") {
					t.Fatalf("traced=%v: err = %v, want a cycle-limit error", tr != nil, err)
				}
				errs[i] = err.Error()
			}
			if errs[0] != errs[1] {
				t.Errorf("errors differ: untraced %q, traced %q", errs[0], errs[1])
			}
		})
	}
}

// TestSkipHeldStallTailGrows covers the one way a held 2Pre operand stall
// can change before its wake. The dispatch set {fadd} has taken every
// queued group and waits on the fdiv, a non-load producer. The next group
// reaches the queue three cycles late (its I-cache line comes from L2),
// merges into the set, and blocks it on the earlier cold load, which
// returns much later: from that cycle on the stall is a load stall. The
// enqueue must end the hold, or the untraced run charges those cycles to
// the wrong class.
func TestSkipHeldStallTailGrows(t *testing.T) {
	prog := program.MustAssemble(t.Name(), `
        movi r1 = 0x40000 ;;
        nop ;;
        nop ;;
        nop ;;
        ld4 r2 = [r1] ;;          // cold miss
        fdiv f3 = f1, f1 ;;       // 20-cycle non-load producer
        nop ;;
        fadd f4 = f3, f3 ;;       // deferred; blocks the B-pipe on f3
        add r6 = r2, r2 ;;        // first instruction of the next I-cache line
        halt ;;
`)
	checkSkipEquivalent(t, TwoPassRegroup, DefaultConfig(), prog)
}
