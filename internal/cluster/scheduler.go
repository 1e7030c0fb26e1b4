package cluster

import (
	"sync"

	"fleaflicker/internal/service"
)

// unitTask is one fresh unit the cluster must compute: the wire form to
// dispatch, the federated entry it completes, and its ring preference order
// (owner first) used for routing and failover.
type unitTask struct {
	wire      service.WireUnit
	key       string
	entry     *fedEntry
	prefs     []int // ring preference (backend indices), owner first
	attempts  int   // dispatch attempts so far (re-routes increment)
	backoffs  int   // backpressure (429/503) pauses absorbed so far
	timeoutMS int64
	job       *Job // admitting job; its ctx governs execution
}

// scheduler owns all mutable routing state: one queue per backend, the
// per-backend liveness flags and capacities the prober maintains, and the
// in-flight accounting the dispatch slots update. A single mutex guards all
// of it — membership is small (a handful of backends) and every operation
// is a few slice moves, so one lock keeps the ownership/steal invariant
// trivially auditable: a task is in exactly one queue, or in exactly one
// dispatch slot, never both.
type scheduler struct {
	met *clusterMetrics

	// wake carries one token per backend: dispatch slots park on it when
	// their backend is at capacity, or when both its own queue and every
	// steal candidate are empty. Buffered so an enqueue never blocks;
	// immutable after construction.
	wake []chan struct{}
	// slots is the number of dispatch slots per backend, the upper bound
	// on any backend's capacity; immutable after construction.
	slots int

	mu sync.Mutex
	//flea:guardedby(mu)
	queues [][]*unitTask
	//flea:guardedby(mu)
	up []bool
	//flea:guardedby(mu)
	probeFails []int // consecutive failed probes per backend
	//flea:guardedby(mu)
	probeOKs []int // consecutive successful probes per backend
	//flea:guardedby(mu)
	inflight []int
	//flea:guardedby(mu)
	capacity []int // units a backend may hold in flight: its advertised workers, clamped to [1, slots]
	//flea:guardedby(mu)
	queued int // total across queues
	//flea:guardedby(mu)
	executed []int64 // units actually simulated per backend
	//flea:guardedby(mu)
	peerServed []int64 // units this backend's slots served from a peer's cache
	//flea:guardedby(mu)
	stolen []int64 // units this backend's slots stole from others
	//flea:guardedby(mu)
	closed bool // intake refused; queued tasks still drain
	//flea:guardedby(mu)
	stopped bool // dispatch over: next yields nil, requeue refuses
}

// taskOutcome is how a dispatch slot retired a task, for the per-backend
// accounting /clusterz reports.
type taskOutcome int

const (
	// taskAbandoned: failed, re-routed or requeued — not completed here.
	taskAbandoned taskOutcome = iota
	// taskExecuted: simulated on this backend.
	taskExecuted
	// taskPeerServed: completed from a federation peer's cache, no simulation.
	taskPeerServed
)

func newScheduler(n, slots int, met *clusterMetrics) *scheduler {
	s := &scheduler{
		met:        met,
		wake:       make([]chan struct{}, n),
		slots:      slots,
		queues:     make([][]*unitTask, n),
		up:         make([]bool, n),
		probeFails: make([]int, n),
		probeOKs:   make([]int, n),
		inflight:   make([]int, n),
		capacity:   make([]int, n),
		executed:   make([]int64, n),
		peerServed: make([]int64, n),
		stolen:     make([]int64, n),
	}
	for i := range s.wake {
		s.wake[i] = make(chan struct{}, 1)
		s.up[i] = true    // optimistic until the prober says otherwise
		s.capacity[i] = 1 // until the first successful probe advertises more
	}
	met.backendsUp.Set(int64(n))
	return s
}

// signal wakes one parked dispatch slot of backend b.
func (s *scheduler) signal(b int) {
	select {
	case s.wake[b] <- struct{}{}:
	default:
	}
}

// signalAll wakes a slot on every backend (steal candidates changed).
func (s *scheduler) signalAll() {
	for i := range s.wake {
		s.signal(i)
	}
}

// routeTo picks the first live backend in the task's preference order,
// or -1 when every backend is down. Caller holds s.mu.
//
//flea:locked(mu)
func (s *scheduler) routeTo(t *unitTask) int {
	for _, b := range t.prefs {
		if s.up[b] {
			return b
		}
	}
	return -1
}

// tryEnqueueAll admits a submission's fresh tasks all-or-nothing against the
// cluster queue bound, routing each to the first live backend in its
// preference order. It fails when the batch does not fit, intake is closed,
// or no backend is live.
func (s *scheduler) tryEnqueueAll(tasks []*unitTask, bound int) bool {
	s.mu.Lock()
	if s.closed || s.queued+len(tasks) > bound {
		s.mu.Unlock()
		return false
	}
	targets := make([]int, len(tasks))
	for i, t := range tasks {
		b := s.routeTo(t)
		if b < 0 {
			s.mu.Unlock()
			return false
		}
		targets[i] = b
	}
	for i, t := range tasks {
		s.queues[targets[i]] = append(s.queues[targets[i]], t)
	}
	s.queued += len(tasks)
	s.met.queuedUnits.Set(int64(s.queued))
	spill := false
	for _, b := range targets {
		spill = spill || s.overflowLocked(b) > 0
	}
	s.mu.Unlock()
	for _, b := range targets {
		s.met.unitsRouted.Inc()
		s.signal(b)
	}
	if spill {
		s.signalAll()
	}
	return true
}

// requeue places a task back on a queue after a backoff or failure,
// excluding the backend it just failed on when possible. Returns false when
// no live backend remains.
func (s *scheduler) requeue(t *unitTask, avoid int) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	target := -1
	for _, b := range t.prefs {
		if s.up[b] && b != avoid {
			target = b
			break
		}
	}
	if target < 0 && avoid >= 0 && s.up[avoid] {
		target = avoid // only the failing backend is left; let it retry
	}
	if target < 0 {
		s.mu.Unlock()
		return false
	}
	s.queues[target] = append(s.queues[target], t)
	s.queued++
	s.met.queuedUnits.Set(int64(s.queued))
	spill := s.overflowLocked(target) > 0
	s.mu.Unlock()
	s.signal(target)
	if spill {
		s.signalAll()
	}
	return true
}

// overflowLocked is how many of backend b's queued tasks its own slots
// cannot start now because b is at capacity: the tasks an idle backend may
// steal. Caller holds s.mu.
//
//flea:locked(mu)
func (s *scheduler) overflowLocked(b int) int {
	free := s.capacity[b] - s.inflight[b]
	if free < 0 {
		free = 0 // capacity shrank below what is already in flight
	}
	return len(s.queues[b]) - free
}

// next pops the next task for a dispatch slot of backend b: the head of its
// own queue, or — when that is empty — a steal from the tail of the other
// live backend with the most overflow (queued tasks its own slots cannot
// start because it is at capacity). Returns nil when there is nothing to
// do, or when b already holds as many units in flight as its capacity:
// queued units then stay here, where an idle backend's slot can steal them,
// instead of queueing inside b behind its busy workers. The pop and the
// steal run under one lock acquisition, so a task can never be taken twice
// (the steal-vs-complete race the tests drive).
func (s *scheduler) next(b int) *unitTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	if !s.up[b] {
		return nil // a down backend's slots park until mark-up
	}
	if s.inflight[b] >= s.capacity[b] {
		return nil // at capacity: park until taskDone or a probe frees room
	}
	if len(s.queues[b]) > 0 {
		t := s.queues[b][0]
		s.queues[b][0] = nil
		s.queues[b] = s.queues[b][1:]
		s.taskPoppedLocked(b)
		return t
	}
	victim := s.victimLocked(b)
	if victim < 0 {
		return nil
	}
	last := len(s.queues[victim]) - 1
	t := s.queues[victim][last]
	s.queues[victim][last] = nil
	s.queues[victim] = s.queues[victim][:last]
	s.stolen[b]++
	s.met.unitsStolen.Inc()
	s.taskPoppedLocked(b)
	return t
}

// victimLocked picks the backend an idle slot of b steals from: the other
// live backend with the most overflow, or -1 when none has any. A backend
// with free capacity is left its own queue — its slots were signalled, and
// the unit keeps its owner's cache affinity. Ties break on the lowest
// index, keeping victim choice deterministic for a given queue state.
// Caller holds s.mu.
//
//flea:locked(mu)
func (s *scheduler) victimLocked(b int) int {
	victim, most := -1, 0
	for i := range s.queues {
		if i == b || !s.up[i] {
			continue
		}
		if over := s.overflowLocked(i); over > most {
			victim, most = i, over
		}
	}
	return victim
}

// taskPoppedLocked moves one task from queued to b's in-flight accounting.
// When b still has room and work remains for it, it passes the wake-up on
// to another of b's parked slots: one enqueue signal can thus fill every
// free slot, stealing included. Caller holds s.mu.
//
//flea:locked(mu)
func (s *scheduler) taskPoppedLocked(b int) {
	s.queued--
	s.inflight[b]++
	s.met.queuedUnits.Set(int64(s.queued))
	s.met.inflight.Add(1)
	if s.inflight[b] < s.capacity[b] && (len(s.queues[b]) > 0 || s.victimLocked(b) >= 0) {
		s.signal(b)
	}
}

// taskDone retires a task from backend b's in-flight accounting and
// signals b, so a slot parked at capacity re-checks. Simulated and
// peer-served completions count separately so /clusterz's executed[]
// reflects only real simulations on b.
func (s *scheduler) taskDone(b int, outcome taskOutcome) {
	s.mu.Lock()
	s.inflight[b]--
	switch outcome {
	case taskExecuted:
		s.executed[b]++
	case taskPeerServed:
		s.peerServed[b]++
	}
	s.mu.Unlock()
	s.met.inflight.Add(-1)
	s.signal(b)
}

// setCapacity records the worker count backend b advertised on a
// successful probe as its capacity, clamped to [1, slots]. A larger
// capacity wakes that many more of b's parked slots to take up queued work;
// a smaller one can turn units already queued on b into overflow, so it
// wakes every backend to steal them.
func (s *scheduler) setCapacity(b, workers int) {
	n := min(max(workers, 1), s.slots)
	s.mu.Lock()
	grew := n - s.capacity[b]
	s.capacity[b] = n
	spill := grew < 0 && s.overflowLocked(b) > 0
	s.mu.Unlock()
	for ; grew > 0; grew-- {
		s.signal(b)
	}
	if spill {
		s.signalAll()
	}
}

// isUp reports whether backend b is currently marked up.
func (s *scheduler) isUp(b int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up[b]
}

// noteProbe feeds one health-probe outcome into the mark-down/mark-up state
// machine and returns the tasks to re-route (non-nil only on the probe that
// crossed the mark-down threshold).
func (s *scheduler) noteProbe(b int, ok bool, failThreshold, upThreshold int) (drained []*unitTask, markedDown, markedUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.probeFails[b] = 0
		s.probeOKs[b]++
		if !s.up[b] && s.probeOKs[b] >= upThreshold {
			s.up[b] = true
			markedUp = true
			s.met.markups.Inc()
			s.met.backendsUp.Set(s.upCountLocked())
		}
		return nil, false, markedUp
	}
	s.probeOKs[b] = 0
	s.probeFails[b]++
	if s.up[b] && s.probeFails[b] >= failThreshold {
		s.up[b] = false
		markedDown = true
		s.met.markdowns.Inc()
		s.met.backendsUp.Set(s.upCountLocked())
		// Hand the dead backend's queue back to the caller for re-routing;
		// its in-flight tasks re-route themselves when their polls fail.
		drained = s.queues[b]
		s.queues[b] = nil
		s.queued -= len(drained)
		s.met.queuedUnits.Set(int64(s.queued))
	}
	return drained, markedDown, false
}

// upCountLocked counts live backends. Caller holds s.mu.
//
//flea:locked(mu)
func (s *scheduler) upCountLocked() int64 {
	n := int64(0)
	for _, u := range s.up {
		if u {
			n++
		}
	}
	return n
}

// snapshot copies the per-backend view for /clusterz.
func (s *scheduler) snapshot() []BackendStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BackendStatus, len(s.queues))
	for i := range s.queues {
		out[i] = BackendStatus{
			Up:         s.up[i],
			Queued:     len(s.queues[i]),
			Inflight:   s.inflight[i],
			Capacity:   s.capacity[i],
			Executed:   s.executed[i],
			PeerServed: s.peerServed[i],
			Stolen:     s.stolen[i],
		}
	}
	return out
}

// close stops intake; queued tasks still drain through next.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signalAll()
}

// stop ends dispatch after a cancelled drain: it marks the scheduler stopped
// — next yields nil and requeue refuses, so every concurrent caller seals
// its task — and hands back all still-queued tasks so the coordinator can
// fail them. Without this, a drain deadline would strand queued tasks with
// unsealed entries and their jobs' collectors would wait forever.
func (s *scheduler) stop() []*unitTask {
	s.mu.Lock()
	s.closed = true
	s.stopped = true
	var orphans []*unitTask
	for i := range s.queues {
		orphans = append(orphans, s.queues[i]...)
		s.queues[i] = nil
	}
	s.queued = 0
	s.met.queuedUnits.Set(0)
	s.mu.Unlock()
	s.signalAll()
	return orphans
}
