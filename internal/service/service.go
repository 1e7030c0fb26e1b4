// Package service turns the one-shot simulator into a long-lived,
// multi-tenant backend: a job manager with a bounded admission queue, a
// worker pool sized from GOMAXPROCS, and a content-addressed result cache
// keyed by hash(model, benchmark, seed, resolved configuration).
//
// The serving semantics, in one place:
//
//   - Deduplication. Identical units submitted while one is executing
//     coalesce onto the single in-flight execution; identical units
//     submitted later are served from the cache. Cached and fresh results
//     are byte-identical — the simulator is deterministic and the result is
//     stored exactly once, at the execution that produced it.
//   - Verification. Every verified unit is checked against its kernel's
//     functional reference. The reference depends on the kernel alone, so
//     the manager computes it once per kernel and shares it (refMemo);
//     results and errors are those of a fresh reference execution.
//   - Backpressure. Admission is all-or-nothing per job: when the queue
//     cannot hold every fresh unit of a submission, the job is rejected
//     with a retry-after hint instead of being half-admitted. A spec whose
//     grid exceeds MaxUnitsPerJob is rejected before it is expanded.
//   - Cancellation. Every job runs under a context with a per-job timeout;
//     cancellation reaches the machines' cycle loops (checked every 4096
//     cycles) through core.Simulate.
//   - Graceful drain. Drain stops intake, lets the workers finish every
//     admitted unit, and completes in-flight jobs before returning.
//
// Everything here is cold-path admission control and reporting — the
// simulation hot path remains the machines' cycle loops. The flealint
// //flea: vocabulary therefore appears only as //flea:coldpath markers on
// the handlers; no function in this package is a //flea:hotpath.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fleaflicker/internal/core"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/workload"
)

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// QueueFullError rejects a submission whose fresh units do not all fit in
// the admission queue. RetryAfter is the client's backoff hint.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: queue full, retry after %s", e.RetryAfter)
}

// Config sizes the manager. Zero values take defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 256 units).
	QueueDepth int
	// CacheEntries bounds the completed-result cache (default 4096;
	// negative = unbounded).
	CacheEntries int
	// DefaultTimeout bounds a job that does not set timeout_ms (default
	// 120s).
	DefaultTimeout time.Duration
	// MaxUnitsPerJob rejects grids larger than this (default 1024).
	MaxUnitsPerJob int
	// MaxJobs bounds retained job records; the oldest finished jobs are
	// forgotten beyond it (default 4096).
	MaxJobs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxUnitsPerJob <= 0 {
		c.MaxUnitsPerJob = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	return c
}

// Runner executes one resolved unit. The default runs core.Simulate,
// verifying against the manager's shared per-kernel reference; tests
// substitute stubs to control timing and count executions.
type Runner func(ctx context.Context, u UnitSpec) (*stats.Run, error)

// Option configures a Manager.
type Option func(*Manager)

// WithRunner replaces the simulation runner (test seam).
func WithRunner(r Runner) Option {
	return func(m *Manager) { m.runner = r }
}

// Manager is the serving subsystem: admission, deduplication, execution
// and reporting for simulation jobs.
type Manager struct {
	cfg        Config
	reg        *metrics.Registry
	met        *serviceMetrics
	cache      *resultCache
	queue      *taskQueue
	refs       *refMemo
	runner     Runner
	fuzzRunner FuzzRunner
	latency    *LatencyHistogram
	started    time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
	jobWG      sync.WaitGroup

	// submitMu serializes submissions (and the drain flag) so that a
	// batch's cache claims and its all-or-nothing enqueue are atomic with
	// respect to other submissions.
	submitMu sync.Mutex
	draining bool //flea:guardedby(submitMu)

	mu sync.Mutex // guards jobs / jobOrder / nextID
	//flea:guardedby(mu)
	jobs map[string]*Job
	//flea:guardedby(mu)
	jobOrder []string
	//flea:guardedby(mu)
	nextID uint64
}

// New builds a manager and starts its worker pool.
func New(cfg Config, opts ...Option) *Manager {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	met := newServiceMetrics(reg)
	m := &Manager{
		cfg:        cfg,
		reg:        reg,
		met:        met,
		cache:      newResultCache(cfg.CacheEntries, met),
		queue:      newTaskQueue(cfg.QueueDepth, met.queueDepth),
		refs:       newRefMemo(met),
		fuzzRunner: defaultFuzzRunner,
		latency:    &LatencyHistogram{},
		started:    time.Now(),
		jobs:       make(map[string]*Job),
	}
	m.runner = m.simulate
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(m)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workerWG.Add(1)
		go m.worker()
	}
	return m
}

// Registry exposes the service metrics registry (rendered by /metricsz).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Latency exposes the job-latency histogram.
func (m *Manager) Latency() *LatencyHistogram { return m.latency }

// Uptime reports how long the manager has been serving.
func (m *Manager) Uptime() time.Duration { return time.Since(m.started) }

// Draining reports whether a drain has begun.
func (m *Manager) Draining() bool {
	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	return m.draining
}

// QueueDepth returns the current number of admitted-but-unstarted units.
func (m *Manager) QueueDepth() int { return m.queue.depthNow() }

// CachedResult returns the completed result stored under key, if any —
// the cache-federation peer-lookup hook behind GET /v1/cache/{key}. It
// never claims the key or triggers an execution.
func (m *Manager) CachedResult(key string) (*UnitResult, bool) {
	return m.cache.peek(key)
}

// simulate is the default Runner: one unit through the library façade. A
// verified unit is checked against its kernel's shared reference, which
// yields the same stats.Run — or the same error — as core.WithVerify's
// fresh reference execution.
func (m *Manager) simulate(ctx context.Context, u UnitSpec) (*stats.Run, error) {
	b, err := workload.ByName(u.Bench)
	if err != nil {
		return nil, err
	}
	prog := b.Program()
	opts := []core.Option{core.WithConfig(u.Config)}
	if u.Verify {
		ref, err := m.refs.get(b.Name, prog)
		if err != nil {
			return nil, err
		}
		if err := ref.WithinBudget(prog, u.Config.MaxCycles); err != nil {
			return nil, err
		}
		opts = append(opts, core.WithReference(ref))
	}
	return core.Simulate(ctx, u.Model, prog, opts...)
}

// Submit validates and admits one job: the spec is expanded server-side
// into units, each unit resolves against the cache (hit, coalesce, or
// claim), and every claimed unit is enqueued all-or-nothing. The returned
// job is already collecting; watch Done(), Status() or an SSE stream.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	units, err := spec.expand(m.cfg.MaxUnitsPerJob)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("%w: spec expands to zero units", ErrInvalidSpec)
	}
	return m.submitUnits(spec, units, spec.TimeoutMS)
}

// SubmitUnits admits a batch of already-resolved units (the POST /v1/units
// path a cluster coordinator dispatches over), with the same all-or-nothing
// admission, caching and coalescing semantics as Submit.
func (m *Manager) SubmitUnits(units []UnitSpec, timeoutMS int64) (*Job, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("%w: no units", ErrInvalidSpec)
	}
	return m.submitUnits(JobSpec{TimeoutMS: timeoutMS}, units, timeoutMS)
}

// submitUnits is the shared admission tail of Submit and SubmitUnits.
func (m *Manager) submitUnits(spec JobSpec, units []UnitSpec, timeoutMS int64) (*Job, error) {
	if len(units) > m.cfg.MaxUnitsPerJob {
		return nil, fmt.Errorf("%w: %d units exceeds the per-job limit of %d",
			ErrInvalidSpec, len(units), m.cfg.MaxUnitsPerJob)
	}
	timeout := m.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}

	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	if m.draining {
		m.met.jobsRejected.Inc()
		return nil, ErrDraining
	}

	job := &Job{
		spec:           spec,
		units:          units,
		entries:        make([]*entry, len(units)),
		cachedAtSubmit: make([]bool, len(units)),
		created:        time.Now(),
		timeout:        timeout,
		done:           make(chan struct{}),
	}
	job.ctx, job.cancel = context.WithTimeout(m.baseCtx, timeout)

	var fresh []*task
	for i := range units {
		e, claimed := m.cache.acquire(units[i].Key())
		job.entries[i] = e
		if claimed {
			fresh = append(fresh, &task{spec: units[i], entry: e, ctx: job.ctx})
		} else {
			job.cachedAtSubmit[i] = true
		}
	}
	if len(fresh) > 0 && !m.queue.tryPutAll(fresh) {
		for _, t := range fresh {
			m.cache.abandon(t.entry)
		}
		job.cancel()
		m.met.jobsRejected.Inc()
		return nil, &QueueFullError{RetryAfter: time.Second}
	}

	m.mu.Lock()
	m.nextID++
	job.id = fmt.Sprintf("j-%06d-%.8s", m.nextID, units[0].Key())
	m.jobs[job.id] = job
	m.jobOrder = append(m.jobOrder, job.id)
	m.forgetOldJobsLocked()
	m.mu.Unlock()

	m.met.jobsSubmitted.Inc()
	m.met.jobsActive.Add(1)
	m.jobWG.Add(1)
	go m.collect(job)
	return job, nil
}

// forgetOldJobsLocked drops the oldest finished job records beyond MaxJobs.
// Active jobs are never dropped. Caller holds m.mu.
//
//flea:locked(mu)
func (m *Manager) forgetOldJobsLocked() {
	for len(m.jobOrder) > m.cfg.MaxJobs {
		dropped := false
		for i, id := range m.jobOrder {
			j := m.jobs[id]
			if s := j.State(); s == JobDone || s == JobFailed {
				delete(m.jobs, id)
				m.jobOrder = append(m.jobOrder[:i], m.jobOrder[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything retained is still active
		}
	}
}

// Job returns the job registered under id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// collect waits for the job's units, publishes progress, and finalizes the
// job record and service metrics.
func (m *Manager) collect(job *Job) {
	defer m.jobWG.Done()

	job.mu.Lock()
	job.state = JobRunning
	job.mu.Unlock()

	finishedUnits := make(chan int, len(job.units))
	for i := range job.entries {
		go func(i int) {
			<-job.entries[i].done
			finishedUnits <- i
		}(i)
	}
	for n := 0; n < len(job.units); n++ {
		i := <-finishedUnits
		e := job.entries[i]
		job.mu.Lock()
		job.completed++
		ev := ProgressEvent{
			JobID:     job.id,
			Completed: job.completed,
			Total:     len(job.units),
			Key:       e.key,
		}
		if e.err != nil {
			job.unitErrs = append(job.unitErrs, fmt.Errorf("%s: %w", unitLabel(&job.units[i]), e.err))
			ev.Err = e.err.Error()
		}
		job.mu.Unlock()
		job.publish(ev)
	}

	job.cancel()
	job.mu.Lock()
	if len(job.unitErrs) > 0 {
		job.state = JobFailed
	} else {
		job.state = JobDone
	}
	job.finished = time.Now()
	terminal := ProgressEvent{
		JobID:     job.id,
		Completed: job.completed,
		Total:     len(job.units),
		State:     job.state.String(),
	}
	failed := job.state == JobFailed
	elapsed := job.finished.Sub(job.created)
	job.mu.Unlock()

	m.latency.Record(elapsed)
	if failed {
		m.met.jobsFailed.Inc()
	} else {
		m.met.jobsCompleted.Inc()
	}
	m.met.jobsActive.Add(-1)
	job.publish(terminal)
	close(job.done)
}

// worker executes queued units until the queue closes and drains. The loop
// needs no context poll of its own: get blocks on the queue's condition
// variable and returns false once the queue is closed and drained, and the
// simulations themselves run under each task's per-job context.
func (m *Manager) worker() {
	defer m.workerWG.Done()
	//flea:bounded closed-queue handshake: get returns false after close+drain
	for {
		t, ok := m.queue.get()
		if !ok {
			return
		}
		m.met.workersBusy.Add(1)
		start := time.Now()
		res := &UnitResult{Key: t.entry.key}
		var err error
		if t.spec.Fuzz != nil {
			res.Fuzz, err = m.fuzzRunner(t.ctx, t.spec)
		} else {
			res.Run, err = m.runner(t.ctx, t.spec)
		}
		res.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
		m.met.workersBusy.Add(-1)
		m.met.unitsExecuted.Inc()
		if err != nil {
			m.met.unitErrors.Inc()
			m.cache.complete(t.entry, nil, err)
			continue
		}
		m.cache.complete(t.entry, res, nil)
	}
}

// Drain gracefully shuts the manager down: intake stops (Submit returns
// ErrDraining), the workers finish every admitted unit, and every in-flight
// job reaches a terminal state before Drain returns. When ctx expires
// first, the remaining simulations are cancelled (their jobs fail with the
// cancellation error) and Drain returns ctx.Err after they unwind.
func (m *Manager) Drain(ctx context.Context) error {
	m.submitMu.Lock()
	m.draining = true
	m.submitMu.Unlock()
	m.queue.close()

	idle := make(chan struct{})
	go func() {
		m.workerWG.Wait()
		m.jobWG.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		m.baseCancel()
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-idle
		return ctx.Err()
	}
}
