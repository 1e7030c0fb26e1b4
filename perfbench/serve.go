package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"fleaflicker/internal/cluster"
	"fleaflicker/internal/core"
	"fleaflicker/internal/service"
	"fleaflicker/internal/service/client"
	"fleaflicker/internal/stats"
)

// Serving-loop shape: 2 closed-loop clients (one per host CPU) against a
// coordinator over 2 single-worker backends, all in this process.
const (
	serveClients   = 2
	serveBackends  = 2
	pollInterval   = 5 * time.Millisecond
	freshShare     = 0.55
	hotShare       = 0.30 // the rest are 3-point cq_sizes sweeps
	maxServeWindow = 120 * time.Second
)

// sweepCQ are the coupling-queue sizes one sweep job asks for.
var sweepCQ = []int{16, 32, 128}

type jobClass int

const (
	classFresh jobClass = iota
	classHit
	classSweep
)

func (c jobClass) String() string { return [...]string{"fresh", "hit", "sweep"}[c] }

// hotSet is the ≈8 specs warmed in set-up and then repeated: base and 2P on
// every short kernel, so speedup_2p has both sides.
func hotSet() []service.JobSpec {
	var out []service.JobSpec
	for _, b := range shortKernels {
		for _, m := range []string{"base", "2P"} {
			out = append(out, service.JobSpec{Model: m, Bench: b, Verify: true})
		}
	}
	return out
}

// jobGen is one client's deterministic job sequence. It deals jobs from
// shuffled decks rather than drawing them independently, so every block of
// mixBlock jobs holds the exact class shares, and fresh jobs cycle through
// every (model, kernel) cell: seeds change the order, not the amount of
// work. Fresh and sweep jobs carry a JobSpec.Seed no other job in the
// process uses, which gives them a new cache key with an identical result.
type jobGen struct {
	rng    *rand.Rand
	client int
	n      int64

	classes []jobClass        // the current block, dealt from the end
	fresh   []cellKey         // (model, kernel) cells, dealt from the end
	hot     []service.JobSpec // hot-set specs, dealt from the end
	sweeps  []string          // kernels, dealt from the end
}

// mixBlock is the job-mix period: 11 fresh, 6 hot-set and 3 sweep jobs.
const mixBlock = 20

func newJobGen(seed int64, client int) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), client: client}
}

// deal pops the last element of *deck, refilling and reshuffling it from
// full when empty.
func deal[T any](g *jobGen, deck *[]T, full func() []T) T {
	if len(*deck) == 0 {
		*deck = full()
		g.rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	v := (*deck)[len(*deck)-1]
	*deck = (*deck)[:len(*deck)-1]
	return v
}

func (g *jobGen) next() (service.JobSpec, jobClass) {
	g.n++
	seed := int64(g.client+1)<<40 | g.n
	class := deal(g, &g.classes, func() []jobClass {
		block := make([]jobClass, 0, mixBlock)
		for i := 0; i < mixBlock; i++ {
			switch {
			case i < mixBlock*freshShare:
				block = append(block, classFresh)
			case i < mixBlock*(freshShare+hotShare):
				block = append(block, classHit)
			default:
				block = append(block, classSweep)
			}
		}
		return block
	})
	switch class {
	case classFresh:
		k := deal(g, &g.fresh, func() []cellKey {
			var cells []cellKey
			for _, b := range shortKernels {
				for _, m := range modelNames {
					cells = append(cells, cellKey{Model: m, Bench: b})
				}
			}
			return cells
		})
		return service.JobSpec{Model: k.Model, Bench: k.Bench, Verify: true, Seed: seed}, classFresh
	case classHit:
		return deal(g, &g.hot, hotSet), classHit
	default:
		b := deal(g, &g.sweeps, func() []string { return append([]string(nil), shortKernels...) })
		return service.JobSpec{Kind: "sweep", Models: []string{"2P"}, Benches: []string{b}, Verify: true, Seed: seed,
			Sweep: &service.SweepAxes{CQSizes: sweepCQ}}, classSweep
	}
}

// servedUnit is one unit of a finished job, as the client saw it.
type servedUnit struct {
	key    cellKey
	cached bool
	durMS  float64
	run    *stats.Run
}

// jobRecord is one job as timed by its client.
type jobRecord struct {
	class    jobClass
	id       string
	latency  time.Duration // POST until a terminal status is seen
	submit   time.Duration
	polls    int // GETs that saw a non-terminal status
	backoffs int
	units    []servedUnit
	err      error
}

// serveWorkload is serve-mixed: the request path client → coordinator →
// backend → core.Simulate over real loopback HTTP.
type serveWorkload struct {
	ks     *kernelSet
	local  *cluster.Local
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	url    string
	gens   []*jobGen
	hot    []jobRecord // the set-up warm-up jobs

	jobs []jobRecord // every timed job, all phases
	last []jobRecord // the latest phase's jobs

	// counters scraped around the latest phase
	before, after serveCounters
	window        time.Duration
	checkRuns     map[cellKey]cellResult
}

func newServeWorkload(seed int64) *serveWorkload {
	w := &serveWorkload{ks: &kernelSet{names: shortKernels}}
	for c := 0; c < serveClients; c++ {
		w.gens = append(w.gens, newJobGen(seed, c))
	}
	return w
}

func (w *serveWorkload) kernels() *kernelSet { return w.ks }

func (w *serveWorkload) setup(ctx context.Context, tr *tracer) error {
	ks, err := loadKernels(shortKernels, false, tr)
	if err != nil {
		return err
	}
	w.ks = ks
	w.local, err = cluster.StartLocal(serveBackends, service.Config{Workers: 1}, cluster.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: cluster.NewServer(w.local.Coordinator), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // always ErrServerClosed, after close's Shutdown
	}()
	w.url = "http://" + ln.Addr().String()

	c, done := newClient(w.url)
	defer done()
	for _, spec := range hotSet() {
		rec := runJob(ctx, c, spec, classHit, nil, 0)
		if rec.err != nil {
			return fmt.Errorf("warming %s/%s: %w", spec.Model, spec.Bench, rec.err)
		}
		w.hot = append(w.hot, rec)
	}
	return nil
}

// newClient returns a client holding one keep-alive connection, and the
// function that releases it.
func newClient(url string) (*client.Client, func()) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tp, Timeout: time.Minute})), tp.CloseIdleConnections
}

// runJob submits spec and polls until a terminal status, timing the whole
// job. When traced, the job, its submission and every poll are spans that
// share the job ID.
func runJob(ctx context.Context, c *client.Client, spec service.JobSpec, class jobClass, tr *tracer, lane int) jobRecord {
	rec := jobRecord{class: class}
	jid := tr.begin("job", "", 0, lane)
	t0 := time.Now()
	ack, err := c.SubmitJobRetry(ctx, spec, client.RetryPolicy{
		MaxRetries: 100, MaxWait: 100 * time.Millisecond,
		OnBackpressure: func(time.Duration) { rec.backoffs++ },
	})
	rec.submit = time.Since(t0)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		tr.end(jid)
		return rec
	}
	rec.id = ack.ID
	tr.record("SubmitJob", ack.ID, jid, lane, t0, t0.Add(rec.submit))
	var st *service.Status
	if ack.State == "done" || ack.State == "failed" {
		rec.latency = rec.submit
	}
	// The first poll goes out at once (a job served from the coordinator's
	// cache is done by then); later polls are pollInterval apart.
	for st == nil || (st.State != "done" && st.State != "failed") {
		if st != nil {
			timer := time.NewTimer(pollInterval)
			select {
			case <-ctx.Done():
				timer.Stop()
				rec.err = ctx.Err()
				tr.end(jid)
				return rec
			case <-timer.C:
			}
		}
		p0 := time.Now()
		st, err = c.JobStatus(ctx, ack.Location)
		tr.record("poll", ack.ID, jid, lane, p0, time.Now())
		if err != nil {
			rec.err = fmt.Errorf("poll: %w", err)
			tr.end(jid)
			return rec
		}
		if st.State == "done" || st.State == "failed" {
			if rec.latency == 0 {
				rec.latency = time.Since(t0)
			}
		} else {
			rec.polls++
		}
	}
	tr.endReq(jid, ack.ID)
	if st.State != "done" {
		rec.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		return rec
	}
	for _, u := range st.Units {
		if u.State != "done" || u.Result == nil || u.Result.Run == nil {
			rec.err = fmt.Errorf("job %s unit %s/%s: %s %s", st.ID, u.Model, u.Bench, u.State, u.Error)
			return rec
		}
		k := cellKey{Model: u.Model, Bench: u.Bench}
		for _, p := range u.Params {
			if p.Name == "cq_size" {
				k.CQ = p.Value
			}
		}
		rec.units = append(rec.units, servedUnit{key: k, cached: u.Cached, durMS: u.Result.DurationMS, run: u.Result.Run})
	}
	return rec
}

// serveCounters are the service and cluster counters the per-layer metrics
// difference across a phase.
type serveCounters struct {
	routed, stolen, backoffs         int64
	fedHits, fedMisses, fedCoalesced int64
	svcHits, svcMisses, svcCoalesced int64
	executed                         []int64
}

func (w *serveWorkload) scrape(ctx context.Context) (serveCounters, error) {
	var sc serveCounters
	c, done := newClient(w.url)
	defer done()
	var cz struct {
		Backends    []cluster.BackendStatus `json:"backends"`
		Coordinator map[string]int64        `json:"coordinator"`
	}
	if err := c.GetJSON(ctx, "/clusterz", &cz); err != nil {
		return sc, fmt.Errorf("scraping /clusterz: %w", err)
	}
	sc.routed = cz.Coordinator[cluster.MetricUnitsRouted]
	sc.stolen = cz.Coordinator[cluster.MetricUnitsStolen]
	sc.backoffs = cz.Coordinator[cluster.MetricUnitBackoffs]
	sc.fedHits = cz.Coordinator[cluster.MetricFedHits]
	sc.fedMisses = cz.Coordinator[cluster.MetricFedMisses]
	sc.fedCoalesced = cz.Coordinator[cluster.MetricFedCoalesced]
	for _, b := range cz.Backends {
		sc.executed = append(sc.executed, b.Executed)
	}
	for _, u := range w.local.URLs() {
		bc, bdone := newClient(u)
		counters, _, err := bc.ScrapeMetrics(ctx)
		bdone()
		if err != nil {
			return sc, fmt.Errorf("scraping %s/metricsz: %w", u, err)
		}
		sc.svcHits += counters[service.MetricCacheHits]
		sc.svcMisses += counters[service.MetricCacheMisses]
		sc.svcCoalesced += counters[service.MetricCacheCoalesced]
	}
	return sc, nil
}

// measure runs the closed loop until the window has elapsed and the phase
// holds tailSamples fresh jobs.
func (w *serveWorkload) measure(ctx context.Context, res *results, window time.Duration, tr *tracer, tailSamples int) (*phase, error) {
	var err error
	if w.before, err = w.scrape(ctx); err != nil {
		return nil, err
	}

	var mu sync.Mutex
	var recs []jobRecord
	fresh := 0
	start := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		return el < maxServeWindow && (el < window || fresh < tailSamples)
	}
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, done := newClient(w.url)
			defer done()
			gen := w.gens[ci]
			for more() && ctx.Err() == nil {
				spec, class := gen.next()
				var rec jobRecord
				if tr == nil {
					rec = runJob(ctx, c, spec, class, nil, 0)
				} else {
					model, bench := spec.Model, spec.Bench
					if spec.Kind == "sweep" {
						model, bench = spec.Models[0], spec.Benches[0]
					}
					pprof.Do(ctx, pprof.Labels("workload", "serve-mixed", "model", model, "bench", bench),
						func(ctx context.Context) { rec = runJob(ctx, c, spec, class, tr, ci+1) })
				}
				mu.Lock()
				recs = append(recs, rec)
				if class == classFresh {
					fresh++
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	w.window = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.after, err = w.scrape(ctx); err != nil {
		return nil, err
	}

	w.last = recs
	w.jobs = append(w.jobs, recs...)

	ph := &phase{}
	var instr int64
	for _, r := range recs {
		res.attempted++
		if r.err != nil {
			res.fail("%s job: %v", r.class, r.err)
			continue
		}
		ph.opMS = append(ph.opMS, ms(r.latency))
		for _, u := range r.units {
			if !u.cached {
				instr += u.run.Instructions
			}
		}
	}
	ph.minstr = []float64{float64(instr) / 1e6 / w.window.Seconds()}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check stops the cluster, simulates every distinct served cell in-process
// and requires each served stats.Run to equal it byte for byte. It sets the
// deterministic metrics: cycles and speed-up from the warmed hot set,
// allocations per simulation from the in-process runs of the default cells.
func (w *serveWorkload) check(ctx context.Context, res *results) error {
	w.close()                       // nothing else may allocate while allocations are counted
	checked := map[cellKey][]byte{} // in-process Run JSON per cell
	w.checkRuns = map[cellKey]cellResult{}
	// Every default cell of the short kernels is checked, served or not, so
	// the per-layer core.* numbers cover the same cells on every run.
	var keys []cellKey
	for _, b := range shortKernels {
		for _, m := range modelNames {
			keys = append(keys, cellKey{Model: m, Bench: b})
		}
	}
	seen := map[cellKey]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	all := append(append([]jobRecord(nil), w.hot...), w.jobs...)
	for _, r := range all {
		for _, u := range r.units {
			if !seen[u.key] {
				seen[u.key] = true
				keys = append(keys, u.key)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	refs := map[string]*core.Reference{}
	for _, k := range keys {
		ref := refs[k.Bench]
		if ref == nil {
			var err error
			if ref, err = core.ComputeReference(w.ks.progs[k.Bench], core.DefaultConfig().MaxCycles); err != nil {
				return fmt.Errorf("reference %s: %w", k.Bench, err)
			}
			refs[k.Bench] = ref
		}
		cr, err := simulate(ctx, "serve-mixed", k, w.ks.progs[k.Bench], ref, nil, 0)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", k, err)
		}
		b, err := json.Marshal(cr.run)
		if err != nil {
			return err
		}
		checked[k] = b
		w.checkRuns[k] = cr
	}
	for _, r := range all {
		for _, u := range r.units {
			b, err := json.Marshal(u.run)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, checked[u.key]) {
				res.fail("job %s unit %s: served stats differ from the in-process run", r.id, u.key)
			}
		}
	}
	var allocs float64
	for _, b := range shortKernels {
		for _, m := range modelNames {
			allocs += w.checkRuns[cellKey{Model: m, Bench: b}].allocs
		}
	}
	res.set("allocs_per_sim", allocs/float64(len(shortKernels)*len(modelNames)))

	var cycles int64
	var speedups []float64
	byKey := map[cellKey]*stats.Run{}
	for _, r := range w.hot {
		for _, u := range r.units {
			cycles += u.run.Cycles
			byKey[u.key] = u.run
		}
	}
	for _, b := range shortKernels {
		base, twoP := byKey[cellKey{Model: "base", Bench: b}], byKey[cellKey{Model: "2P", Bench: b}]
		if base == nil || twoP == nil {
			return errors.New("hot set lacks a base/2P pair")
		}
		speedups = append(speedups, float64(base.Cycles)/float64(twoP.Cycles))
	}
	res.set("sim_cycles", float64(cycles))
	res.set("speedup_2p", geomean(speedups))
	return nil
}

// layers sets the serving, client and cluster per-layer metrics from the
// latest (traced) phase, and core.* from the in-process check runs.
func (w *serveWorkload) layers(ctx context.Context, res *results, tr *tracer) error {
	for _, m := range modelNames {
		var agg modelAgg
		for _, b := range shortKernels {
			k := cellKey{Model: m, Bench: b}
			cr := w.checkRuns[k]
			agg.add(cr.run, cr.dur.Seconds(), cr.allocs)
		}
		agg.set(res, m, true)
	}

	var submit, jobLat, freshLat, hitLat, simMS, wait []float64
	polls, backoffs, jobs, units, cached := 0, 0, 0, 0, 0
	for _, r := range w.last {
		if r.err != nil {
			continue
		}
		jobs++
		polls += r.polls
		backoffs += r.backoffs
		submit = append(submit, ms(r.submit))
		jobLat = append(jobLat, ms(r.latency))
		switch r.class {
		case classFresh:
			freshLat = append(freshLat, ms(r.latency))
			wait = append(wait, ms(r.latency)-r.units[0].durMS)
		case classHit:
			hitLat = append(hitLat, ms(r.latency))
		}
		for _, u := range r.units {
			units++
			if u.cached {
				cached++
			} else {
				simMS = append(simMS, u.durMS)
			}
		}
	}
	if jobs == 0 {
		return errors.New("no completed jobs in the traced phase")
	}
	res.set("client.submit_ms_p50", median(submit))
	res.set("client.polls_per_job", float64(polls)/float64(jobs))
	res.set("service.sim_ms_p50", median(simMS))
	res.set("service.queue_wait_ms_p50", median(wait))
	p90, ok := percentile(wait, 0.9)
	if !ok {
		return fmt.Errorf("only %d fresh jobs: too few for a p90", len(wait))
	}
	res.set("service.queue_wait_ms_p90", p90)
	fp90, _ := percentile(freshLat, 0.9)
	jp90, _ := percentile(jobLat, 0.9)
	res.set("serve.job_p90_ms", jp90)
	res.set("serve.jobs_per_s", float64(jobs)/w.window.Seconds())
	res.set("serve.fresh_p50_ms", median(freshLat))
	res.set("serve.fresh_p90_ms", fp90)
	res.set("serve.hit_p50_ms", median(hitLat))

	b, a := w.before, w.after
	svcHits, svcMiss, svcCoal := a.svcHits-b.svcHits, a.svcMisses-b.svcMisses, a.svcCoalesced-b.svcCoalesced
	fedHits, fedMiss, fedCoal := a.fedHits-b.fedHits, a.fedMisses-b.fedMisses, a.fedCoalesced-b.fedCoalesced
	res.set("service.cache_hit_ratio", ratio(svcHits+svcCoal, svcHits+svcMiss+svcCoal))
	res.set("service.coalesced", float64(svcCoal))
	res.set("cluster.fed_hit_ratio", ratio(fedHits+fedCoal, fedHits+fedMiss+fedCoal))
	res.set("cluster.steal_ratio", ratio(a.stolen-b.stolen, a.routed-b.routed))
	var lo, hi int64 = -1, 0
	for i := range a.executed {
		d := a.executed[i] - b.executed[i]
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	res.set("cluster.backend_imbalance", ratio(hi, max(lo, 1)))
	res.set("cluster.backpressure_retries", float64(a.backoffs-b.backoffs+int64(backoffs)))
	coalesced := float64(svcCoal + fedCoal)
	res.set("serve.units", float64(units))
	res.set("serve.fresh_share", ratio(int64(units-cached), int64(units)))
	res.set("serve.coalesced_share", coalesced/float64(units))
	res.set("serve.hit_share", (float64(cached)-coalesced)/float64(units))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// close stops the coordinator's HTTP server and the cluster; it may be
// called more than once.
func (w *serveWorkload) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		<-w.served
		w.srv = nil
	}
	if w.local != nil {
		w.local.Close()
		w.local = nil
	}
}
