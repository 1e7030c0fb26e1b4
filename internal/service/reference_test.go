package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"fleaflicker/internal/core"
	"fleaflicker/internal/workload"
)

// referenceCounters reads the reference-sharing counters off the manager's
// registry.
func referenceCounters(m *Manager) (computed, shared int64) {
	counters, _ := m.Registry().Snapshot()
	return counters[MetricReferencesComputed], counters[MetricReferencesShared]
}

// TestVerifiedUnitsShareOneReference runs concurrent verified units of one
// kernel: the functional reference must be computed exactly once, and every
// served stats.Run must be byte-identical to an in-process
// core.Simulate(..., WithVerify()) — which computes its own reference.
func TestVerifiedUnitsShareOneReference(t *testing.T) {
	const bench = "300.twolf"
	models := []string{"base", "2P", "2Pre", "runahead"}
	m := New(Config{Workers: len(models)})
	defer m.Drain(context.Background())

	job, err := m.Submit(JobSpec{Kind: "sweep", Models: models, Benches: []string{bench}, Verify: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, job)
	if job.State() != JobDone {
		t.Fatalf("job state = %v, want done (err: %v)", job.State(), job.Err())
	}
	if computed, shared := referenceCounters(m); computed != 1 || shared != int64(len(models)-1) {
		t.Fatalf("references computed=%d shared=%d, want 1 and %d", computed, shared, len(models)-1)
	}

	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	for i, u := range job.units {
		res := st.Units[i].Result
		if res == nil || res.Run == nil {
			t.Fatalf("unit %s: no result", u.ModelName)
		}
		want, err := core.Simulate(context.Background(), u.Model, b.Program(),
			core.WithConfig(u.Config), core.WithVerify())
		if err != nil {
			t.Fatalf("in-process %s: %v", u.ModelName, err)
		}
		got, _ := json.Marshal(res.Run)
		wantJSON, _ := json.Marshal(want)
		if string(got) != string(wantJSON) {
			t.Fatalf("unit %s: served run differs from in-process run\n got %s\nwant %s", u.ModelName, got, wantJSON)
		}
	}
}

// TestVerifiedUnitOverBudgetFailsLikeFreshReference gives a verified unit
// max_cycles one below the kernel's instruction count after the kernel's
// reference is shared: the unit must fail with exactly the error a fresh
// reference execution under that bound reports, without recomputing.
func TestVerifiedUnitOverBudgetFailsLikeFreshReference(t *testing.T) {
	const bench = "300.twolf"
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.ComputeReference(b.Program(), core.DefaultConfig().MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	budget := ref.Result.Instructions - 1

	m := New(Config{Workers: 1})
	defer m.Drain(context.Background())
	warm, err := m.Submit(JobSpec{Model: "2P", Bench: bench, Verify: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, warm)

	job, err := m.Submit(JobSpec{Model: "2P", Bench: bench, Verify: true,
		Config: ConfigOverrides{MaxCycles: &budget}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, job)
	if job.State() != JobFailed {
		t.Fatalf("job state = %v, want failed", job.State())
	}
	u := job.units[0]
	_, want := core.Simulate(context.Background(), u.Model, b.Program(),
		core.WithConfig(u.Config), core.WithVerify())
	if want == nil {
		t.Fatal("in-process run under the short budget succeeded; want a reference error")
	}
	if got := job.Status().Units[0].Error; got != want.Error() {
		t.Fatalf("unit error = %q, want %q", got, want.Error())
	}
	if computed, shared := referenceCounters(m); computed != 1 || shared != 1 {
		t.Fatalf("references computed=%d shared=%d, want 1 and 1", computed, shared)
	}
}

// TestSweepBoundRejectedBeforeExpansion submits four 30-value axes — an
// 810,000-unit grid from a spec of a few hundred bytes. Both the backend and
// the coordinator expansion path must reject it as invalid without
// building the grid.
func TestSweepBoundRejectedBeforeExpansion(t *testing.T) {
	axis := make([]int, 30)
	for i := range axis {
		axis[i] = 16 + i
	}
	spec := JobSpec{Kind: "sweep", Model: "2P", Bench: "300.twolf", Sweep: &SweepAxes{
		CQSizes: axis, FeedbackLatencies: axis, ALATCapacities: axis, DeferThrottles: axis,
	}}
	m := New(Config{Workers: 1})
	defer m.Drain(context.Background())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, submitErr := m.Submit(spec)
	_, expandErr := ExpandUnits(spec, testMaxUnits)
	runtime.ReadMemStats(&after)

	for _, c := range []struct {
		path string
		err  error
	}{{"Submit", submitErr}, {"ExpandUnits", expandErr}} {
		if !errors.Is(c.err, ErrInvalidSpec) || !strings.Contains(c.err.Error(), "per-job limit") {
			t.Errorf("%s: err = %v, want an ErrInvalidSpec per-job limit rejection", c.path, c.err)
		}
	}
	// Building the grid costs hundreds of megabytes; the rejection only a
	// few small allocations.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the spec allocated %d bytes; the grid was built", grew)
	}

	// A fuzz campaign is bounded by its chunk count the same way.
	fuzz := JobSpec{Kind: "fuzz", Fuzz: &FuzzSpec{Programs: math.MaxInt32, ChunkSize: 1}}
	if _, err := ExpandUnits(fuzz, testMaxUnits); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("oversized fuzz campaign: err = %v, want ErrInvalidSpec", err)
	}
}

// TestCheckUnitCountOverflow pins the overflow guard: a product that wraps
// int64 must still be rejected, and one exactly at the limit admitted.
func TestCheckUnitCountOverflow(t *testing.T) {
	if err := checkUnitCount(1024, math.MaxInt, 2); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("wrapping product: err = %v, want ErrInvalidSpec", err)
	}
	if err := checkUnitCount(1024, 1<<32, 1<<32); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("2^64 product: err = %v, want ErrInvalidSpec", err)
	}
	if err := checkUnitCount(1024, 4, 16, 16); err != nil {
		t.Errorf("1024-unit grid: err = %v, want nil", err)
	}
	if err := checkUnitCount(1024, 5, 16, 13); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("1040-unit grid: err = %v, want ErrInvalidSpec", err)
	}
}
