package stats

import (
	"testing"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
)

func TestCollectorSnapshotMatchesRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg, "bench", "2P")

	lat := [mem.NumLevels]int{2, 5, 15, 145}
	c.Cycle(Unstalled)
	c.Cycle(Unstalled)
	c.Cycle(LoadStall)
	c.Instruction()
	c.Access(mem.LevelL2, PipeA, lat)
	c.Access(mem.LevelMem, PipeB, lat)
	c.MispredictA()
	c.MispredictB()
	c.ConflictFlush()
	c.LoadPastDeferredStore()
	c.StoreCommitted()
	c.StoreDeferred()
	c.Defer()
	c.PreExecute()
	c.Regroup(3)
	c.CQOccupancy(7)
	c.CQOccupancy(5)

	r := c.Snapshot(mem.Stats{})
	if r.Benchmark != "bench" || r.Model != "2P" {
		t.Errorf("identity lost: %q/%q", r.Benchmark, r.Model)
	}
	if r.Cycles != 3 || r.ByClass[Unstalled] != 2 || r.ByClass[LoadStall] != 1 {
		t.Errorf("cycle counts wrong: %d %v", r.Cycles, r.ByClass)
	}
	if r.Access[mem.LevelL2][PipeA] != 1 || r.AccessCycles[mem.LevelL2][PipeA] != 5 {
		t.Errorf("L2/A access wrong: %d/%d", r.Access[mem.LevelL2][PipeA], r.AccessCycles[mem.LevelL2][PipeA])
	}
	if r.AccessCycles[mem.LevelMem][PipeB] != 145 {
		t.Errorf("Mem/B access cycles wrong")
	}
	if r.MispredictsA != 1 || r.MispredictsB != 1 || r.ConflictFlushes != 1 ||
		r.LoadsPastDeferredStore != 1 || r.StoresTotal != 1 || r.StoresDeferred != 1 ||
		r.Deferred != 1 || r.PreExecuted != 1 || r.Regrouped != 3 || r.CQOccupancySum != 12 {
		t.Errorf("scalar counters wrong: %+v", r)
	}

	// The registry view and the Run view must agree name by name.
	if v, _ := reg.CounterValue(MetricCycles); v != r.Cycles {
		t.Errorf("registry %s=%d, Run.Cycles=%d", MetricCycles, v, r.Cycles)
	}
	if v, _ := reg.CounterValue(ClassMetricName(LoadStall)); v != r.ByClass[LoadStall] {
		t.Errorf("registry class counter disagrees with Run")
	}
	if v, _ := reg.CounterValue(AccessMetricName(mem.LevelL2, PipeA, true)); v != 5 {
		t.Errorf("registry access counter = %d, want 5", v)
	}
	if g := reg.Gauge(GaugeCQOccupancy).Value(); g != 5 {
		t.Errorf("occupancy gauge = %d, want last-set 5", g)
	}

	// Cycle() keeps the Figure 6 invariant by construction.
	if err := r.CheckInvariants(); err == nil {
		// Access counts vs Mem.DataServed mismatch is expected here (no
		// hierarchy); check only the class-sum half.
		t.Log("invariants unexpectedly fully satisfied (no hierarchy stats)")
	}
	var sum int64
	for _, v := range r.ByClass {
		sum += v
	}
	if sum != r.Cycles {
		t.Errorf("class sum %d != cycles %d", sum, r.Cycles)
	}
}

func TestCollectorExtraCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg, "b", "m")
	c.Counter("runahead.entries").Add(4)
	if v, ok := reg.CounterValue("runahead.entries"); !ok || v != 4 {
		t.Errorf("extra counter = %d, %v", v, ok)
	}
	if c.Registry() != reg {
		t.Error("Registry() should expose the backing registry")
	}
}

// The bulk forms must equal the same number of single-cycle calls.
func TestCollectorBulkCyclesMatchPerCycle(t *testing.T) {
	bulk := NewCollector(metrics.NewRegistry(), "b", "2P")
	single := NewCollector(metrics.NewRegistry(), "b", "2P")
	bulk.Cycle(LoadStall)
	bulk.Cycles(LoadStall, 6)
	bulk.CQOccupancyCycles(9, 7)
	for i := 0; i < 7; i++ {
		single.Cycle(LoadStall)
		single.CQOccupancy(9)
	}
	b, s := bulk.Snapshot(mem.Stats{}), single.Snapshot(mem.Stats{})
	if b.Cycles != 7 || b.ByClass != s.ByClass || b.CQOccupancySum != s.CQOccupancySum {
		t.Errorf("bulk %d cycles %v occupancy %d; per-cycle %d cycles %v occupancy %d",
			b.Cycles, b.ByClass, b.CQOccupancySum, s.Cycles, s.ByClass, s.CQOccupancySum)
	}
	if g := bulk.Registry().Gauge(GaugeCQOccupancy).Value(); g != 9 {
		t.Errorf("occupancy gauge = %d, want 9", g)
	}
}
