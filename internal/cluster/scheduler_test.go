package cluster

import (
	"testing"

	"fleaflicker/internal/metrics"
)

// drainWake empties every backend's wake channel.
func drainWake(s *scheduler) {
	for _, w := range s.wake {
		select {
		case <-w:
		default:
		}
	}
}

// TestSchedulerCapacityShrinkWakesStealers: when a backend's advertised
// capacity drops while units are queued on it, those units become overflow
// and a parked slot of an idle backend must be woken to steal one — no
// later enqueue, requeue or mark-up is needed to get them moving.
func TestSchedulerCapacityShrinkWakesStealers(t *testing.T) {
	s := newScheduler(2, 4, newClusterMetrics(metrics.NewRegistry()))
	s.setCapacity(0, 4)
	tasks := make([]*unitTask, 4)
	for i := range tasks {
		tasks[i] = &unitTask{prefs: []int{0, 1}}
	}
	if !s.tryEnqueueAll(tasks, len(tasks)) {
		t.Fatal("enqueue refused")
	}
	if s.next(0) == nil {
		t.Fatal("backend 0 popped nothing")
	}
	// One unit in flight on backend 0, three queued, all within capacity 4:
	// nothing for backend 1 to steal yet.
	if got := s.next(1); got != nil {
		t.Fatal("backend 1 stole while backend 0 had room for its queue")
	}
	drainWake(s)

	s.setCapacity(0, 1)
	select {
	case <-s.wake[1]:
	default:
		t.Fatal("capacity shrink left backend 1's parked slot asleep")
	}
	if s.next(1) == nil {
		t.Fatal("backend 1 stole nothing after backend 0 shrank to capacity 1")
	}
	if s.next(0) != nil {
		t.Fatal("backend 0 popped past its capacity of 1")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stolen[1] != 1 || s.inflight[1] != 1 || len(s.queues[0]) != 2 {
		t.Fatalf("stolen[1]=%d inflight[1]=%d queued on 0=%d, want 1, 1, 2",
			s.stolen[1], s.inflight[1], len(s.queues[0]))
	}
}
