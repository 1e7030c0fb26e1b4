package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
	"fleaflicker/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// TestGoldenJSONLTrace pins the exact event stream of a tiny deterministic
// kernel on the two-pass, baseline and run-ahead machines. The simulators
// are deterministic, so any diff means either an intentional machine/trace
// change (rerun with -update) or a regression in event emission.
func TestGoldenJSONLTrace(t *testing.T) {
	p := program.MustAssemble("goldentrace", `
        movi r1 = 0x40000 ;;
        ld4 r2 = [r1] ;;          // cold miss
        add r3 = r2, r2 ;;        // deferred consumer
        cmpi.eq p1 = r2, 999 ;;   // deferred predicate (false)
        (p1) br skip ;;           // B-DET mispredict: flush
        movi r3 = 1 ;;
skip:   add r4 = r3, r3 ;;
        st4 [r1, 8] = r4 ;;
        halt ;;
`)
	for _, tc := range []struct {
		model Model
		file  string
	}{
		{TwoPass, "golden_trace.jsonl"},
		{Baseline, "golden_trace_base.jsonl"},
		{Runahead, "golden_trace_runahead.jsonl"},
	} {
		t.Run(tc.model.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Simulate(context.Background(), tc.model, p,
				WithVerify(), WithTrace(trace.NewJSONLSink(&buf))); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", tc.file), buf.Bytes())
		})
	}
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: trace diverges at line %d:\n got: %s\nwant: %s\n(%d vs %d lines; run with -update if intentional)",
				golden, i+1, g, w, len(gotLines), len(wantLines))
		}
	}
	t.Fatalf("%s: trace differs (got %d bytes, want %d)", golden, len(got), len(want))
}

// TestMetricsDeriveStatsOnSuite runs a real suite benchmark on every model
// twice — once with the machine's private registry, once with an external
// one — and checks that the external registry's counters agree with the
// private run's aggregates field by field. This is the "aggregates and traces can
// never disagree" guarantee: both views come from the same counters.
func TestMetricsDeriveStatsOnSuite(t *testing.T) {
	b, err := workload.ByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models() {
		plain, err := Simulate(context.Background(), model, b.Program(), WithConfig(DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		r, err := Simulate(context.Background(), model, b.Program(), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != plain.Cycles || r.Instructions != plain.Instructions {
			t.Errorf("%v: run with metrics differs from plain run: %d/%d vs %d/%d cycles/insts",
				model, r.Cycles, r.Instructions, plain.Cycles, plain.Instructions)
		}
		check := func(name string, want int64) {
			t.Helper()
			if v, _ := reg.CounterValue(name); v != want {
				t.Errorf("%v: registry %s = %d, plain run = %d", model, name, v, want)
			}
		}
		check(stats.MetricCycles, plain.Cycles)
		check(stats.MetricInstructions, plain.Instructions)
		for c := stats.CycleClass(0); c < stats.NumCycleClasses; c++ {
			check(stats.ClassMetricName(c), plain.ByClass[c])
		}
		check(stats.MetricMispredictsA, plain.MispredictsA)
		check(stats.MetricMispredictsB, plain.MispredictsB)
		check(stats.MetricConflictFlushes, plain.ConflictFlushes)
		check(stats.MetricStoresTotal, plain.StoresTotal)
		check(stats.MetricStoresDeferred, plain.StoresDeferred)
		check(stats.MetricDeferred, plain.Deferred)
		check(stats.MetricPreExecuted, plain.PreExecuted)
		check(stats.MetricRegrouped, plain.Regrouped)
		check(stats.MetricCQOccupancySum, plain.CQOccupancySum)
		for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
			for p := stats.Pipe(0); p < stats.NumPipes; p++ {
				check(stats.AccessMetricName(lvl, p, false), plain.Access[lvl][p])
				check(stats.AccessMetricName(lvl, p, true), plain.AccessCycles[lvl][p])
			}
		}
	}
}
