package diffsim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// skipEquivalenceRunner runs each cell twice: untraced, where the machines
// skip stalled cycles in bulk, and with a discarding tracer attached, which
// turns skipping off and so gives the per-cycle reference. Both runs are
// verified against the reference executor (final registers, memory and
// committed-store order); on top of that their stats must be deep-equal and
// their store logs identical.
func skipEquivalenceRunner() Runner {
	perCycleLog := &mem.StoreLog{}
	return func(ctx context.Context, cell Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error {
		run := func(log *mem.StoreLog, extra ...core.Option) (*stats.Run, error) {
			opts := []core.Option{core.WithConfig(cfg), core.WithReference(ref), core.WithStoreLog(log)}
			if resume != nil {
				opts = append(opts, core.ResumeFrom(resume))
			}
			return core.Simulate(ctx, cell.Model, prog, append(opts, extra...)...)
		}
		skipped, err := run(log)
		if err != nil {
			return err
		}
		perCycle, err := run(perCycleLog, core.WithTrace(trace.FuncSink(func(trace.Event) {})))
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		if !reflect.DeepEqual(skipped, perCycle) {
			return fmt.Errorf("stats differ:\nuntraced: %+v\ntraced:   %+v", skipped, perCycle)
		}
		if log.Len() != perCycleLog.Len() || log.Hash() != perCycleLog.Hash() {
			return fmt.Errorf("store logs differ: untraced (n=%d, hash=%#x) vs traced (n=%d, hash=%#x)",
				log.Len(), log.Hash(), perCycleLog.Len(), perCycleLog.Hash())
		}
		return nil
	}
}

// TestSkipMatchesPerCycleOnGeneratedPrograms is the skip-equivalence gate
// on generated programs: every default-lattice cell, from cycle zero and
// resumed from a functional checkpoint, skipped and per-cycle.
func TestSkipMatchesPerCycleOnGeneratedPrograms(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine simulations give the race detector nothing to find, and it slows the traced runs tenfold")
	}
	programs := int64(300)
	if testing.Short() {
		programs = 30
	}
	gen := progen.DefaultConfig()
	checkers := map[string]*Checker{
		"from-zero":    NewChecker(DefaultLattice(), WithRunner(skipEquivalenceRunner())),
		"checkpointed": NewChecker(DefaultLattice(), WithRunner(skipEquivalenceRunner()), WithCheckpointing(AutoCheckpoint)),
	}
	for _, mode := range []string{"from-zero", "checkpointed"} {
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < programs; seed++ {
				res, err := checkers[mode].Check(context.Background(), progen.Generate(seed, gen))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.RefErr != nil {
					t.Fatalf("seed %d: reference failed: %v", seed, res.RefErr)
				}
				for _, d := range res.Divergences {
					t.Errorf("seed %d, cell %v: %v", seed, d.Cell, d)
				}
			}
		})
	}
}
