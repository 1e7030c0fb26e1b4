package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestJobSequenceDeterministic(t *testing.T) {
	for c := 0; c < serveClients; c++ {
		a, b := newJobGen(7, c), newJobGen(7, c)
		for i := 0; i < 200; i++ {
			sa, ca := a.next()
			sb, cb := b.next()
			if ca != cb || !reflect.DeepEqual(sa, sb) {
				t.Fatalf("client %d job %d: %v/%+v vs %v/%+v", c, i, ca, sa, cb, sb)
			}
		}
	}
	a, b := newJobGen(7, 0), newJobGen(8, 0)
	same := true
	for i := 0; i < 50; i++ {
		sa, _ := a.next()
		sb, _ := b.next()
		same = same && reflect.DeepEqual(sa, sb)
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same job sequence")
	}
}

func TestJobMix(t *testing.T) {
	g := newJobGen(1, 0)
	var n [3]int
	seeds := map[int64]bool{}
	const jobs = 100 * mixBlock
	for i := 0; i < jobs; i++ {
		spec, class := g.next()
		n[class]++
		if class != classHit {
			if seeds[spec.Seed] {
				t.Fatalf("fresh seed %d reused", spec.Seed)
			}
			seeds[spec.Seed] = true
		}
	}
	for class, want := range []float64{freshShare, hotShare, 1 - freshShare - hotShare} {
		if got := float64(n[class]) / jobs; math.Abs(got-want) > 1e-9 {
			t.Errorf("%v share %.3f, want %.2f", jobClass(class), got, want)
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	if got := samplesForTail(0.9); got != 100 {
		t.Fatalf("samplesForTail(0.9) = %d, want 100", got)
	}
	if got := samplesForTail(0.5); got != 20 {
		t.Fatalf("samplesForTail(0.5) = %d, want 20", got)
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("p90 of 99 samples leaves fewer than 10 beyond it but was accepted")
	}
	xs = append(xs, 99)
	v, ok := percentile(xs, 0.9)
	if !ok {
		t.Fatal("p90 of 100 samples was refused")
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minTailBeyond {
		t.Fatalf("p90 = %v has %d samples beyond it", v, beyond)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 || s.N != 4 {
		t.Fatalf("summarize = %+v", s)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []metricDecl
	for _, m := range bf.EndToEnd {
		declared = append(declared, metricDecl{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(declared, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprogram emits:\n%v", declared, endToEnd)
	}
	declared = nil
	for _, m := range bf.PerLayer {
		declared = append(declared, metricDecl{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(declared, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprogram emits:\n%v", declared, perLayer())
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, program has %v", names, workloadNames)
	}
}

func TestHotSetWarmUpMakesFirstHotJobAHit(t *testing.T) {
	ctx := context.Background()
	w := newServeWorkload(1)
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c, done := newClient(w.url)
	defer done()
	g := newJobGen(1, 0)
	for {
		spec, class := g.next()
		if class != classHit {
			continue
		}
		rec := runJob(ctx, c, spec, class, nil, 0)
		if rec.err != nil {
			t.Fatal(rec.err)
		}
		for _, u := range rec.units {
			if !u.cached {
				t.Fatalf("first hot job %s/%s was simulated afresh", spec.Model, spec.Bench)
			}
		}
		if rec.polls != 0 {
			t.Errorf("hot job needed %d non-terminal polls", rec.polls)
		}
		return
	}
}

// simOnePass runs one pass of a sim workload and returns its results.
func simOnePass(t *testing.T, name string, kernels []string, seed int64) (*simWorkload, *results) {
	t.Helper()
	ctx := context.Background()
	w := newSimWorkload(name, kernels, seed)
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	res := newResults()
	if _, err := w.measure(ctx, res, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.check(ctx, res); err != nil {
		t.Fatal(err)
	}
	if err := w.layers(ctx, res, nil); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted != len(kernels)*len(modelNames) {
		t.Fatalf("%s: %d of %d cells failed: %v", name, res.failed, res.attempted, res.problems)
	}
	return w, res
}

// TestSimCyclesTieToSnapshot checks that sim-stall and sim-ilp together
// cover the suite and reproduce the per-model cycle and instruction totals
// committed in BENCH_1251b76.json, and that a seed changes only the order
// of the cells, not what they compute.
func TestSimCyclesTieToSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite")
	}
	want := map[string]float64{"base": 10727201, "2P": 8159326, "2Pre": 7666166, "runahead": 8366821}
	ws, stall := simOnePass(t, "sim-stall", stallKernels, 1)
	wi, ilp := simOnePass(t, "sim-ilp", ilpKernels, 1)
	for _, m := range modelNames {
		got := stall.values["core."+m+".cycles"] + ilp.values["core."+m+".cycles"]
		if got != want[m] {
			t.Errorf("%s: %v cycles over both sim workloads, snapshot has %v", m, got, want[m])
		}
		var instr int64
		for _, w := range []*simWorkload{ws, wi} {
			for _, b := range w.ks.names {
				instr += w.cells[cellKey{Model: m, Bench: b}].Instructions
			}
		}
		if instr != 4075066 {
			t.Errorf("%s: %d instructions, snapshot has 4075066", m, instr)
		}
	}

	_, again := simOnePass(t, "sim-ilp", ilpKernels, 2)
	for _, name := range []string{"sim_cycles", "speedup_2p"} {
		if again.values[name] != ilp.values[name] {
			t.Errorf("%s: seed 2 gave %v, seed 1 %v", name, again.values[name], ilp.values[name])
		}
	}
}

func TestScaled(t *testing.T) {
	probe := []float64{2 * refProbeNS, refProbeNS / 2}
	if got := scaled([]float64{10, 10}, probe, true); got[0] != 20 || got[1] != 5 {
		t.Errorf("rates scaled to %v, want [20 5]", got)
	}
	if got := scaled([]float64{10, 10}, probe, false); got[0] != 5 || got[1] != 20 {
		t.Errorf("durations scaled to %v, want [5 20]", got)
	}
	if got := scaled([]float64{10}, nil, false); got[0] != 10 {
		t.Errorf("without probes got %v, want the raw value", got)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "SubmitJob", Start: at(0), End: at(10)},
		{ID: 3, Parent: 1, Name: "poll", Start: at(50), End: at(60)},
		{ID: 4, Parent: 1, Name: "poll", Start: at(55), End: at(70)}, // overlaps the first poll
	}
	self := selfTimes(spans)
	if got := self["job"]; got < 0.0699 || got > 0.0701 {
		t.Errorf("job self time %v s, want 0.07", got)
	}
	if got := self["poll"]; got < 0.0249 || got > 0.0251 {
		t.Errorf("poll self time %v s, want 0.025", got)
	}
}

func TestReadCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink += uint64(spin(1 << 16))
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.total == 0 || len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	if share := p.cumShare("fleaflicker/perfbench.spin"); share < 0.5 {
		t.Errorf("spin holds %.2f of the profile, want most of it", share)
	}
	if share := p.selfShare("fleaflicker/perfbench"); share < 0.5 {
		t.Errorf("package self share %.2f, want most of it", share)
	}
}

//go:noinline
func spin(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"fleaflicker/internal/twopass.(*Machine).bBlocked": "fleaflicker/internal/twopass",
		"net/http.(*conn).serve":                           "net/http",
		"runtime.mallocgc":                                 "runtime",
		"main.main":                                        "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
