package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestCancelReleasesClosure: a canceled or fired event must drop its
// callback immediately — at 10k scale a retained timer closure pins
// mirror and pool state long after the timer is dead.
func TestCancelReleasesClosure(t *testing.T) {
	e := New()

	// Cancel of a pending event strips the closure and recycles.
	ev := e.At(1, func() { t.Error("canceled event fired") })
	e.Cancel(ev)
	if ev.fn != nil {
		t.Error("canceled pending event still holds its closure")
	}
	if len(e.free) != 1 {
		t.Errorf("canceled pending event not recycled: free list has %d entries", len(e.free))
	}

	// A fired event drops its closure when the dispatcher recycles it.
	ev2 := e.At(2, func() {})
	e.Run()
	if ev2.fn != nil {
		t.Error("fired event still holds its closure")
	}

	// Cancel after the event fired must not re-enter the free list:
	// double-recycling would hand the same Event to two At calls.
	before := len(e.free)
	e.Cancel(ev2)
	if ev2.fn != nil {
		t.Error("cancel-after-fire left a closure behind")
	}
	if len(e.free) != before {
		t.Errorf("cancel-after-fire re-recycled the event: free list went %d -> %d", before, len(e.free))
	}
	e.Cancel(nil) // must be a no-op
}

// TestCancelIdempotent: double cancel must neither fire nor recycle
// the event twice.
func TestCancelIdempotent(t *testing.T) {
	e := New()
	ev := e.At(1, func() { t.Error("canceled event fired") })
	e.Cancel(ev)
	free := len(e.free)
	e.Cancel(ev)
	if len(e.free) != free {
		t.Errorf("second cancel re-recycled the event: free list went %d -> %d", free, len(e.free))
	}
	e.Run()
}

// TestEventRecycling: the steady-state schedule/fire cycle must reuse
// events from the free list rather than allocating.
func TestEventRecycling(t *testing.T) {
	e := New()
	e.At(0, func() {})
	e.Run() // warm the free list and the heap's backing array
	var nop = func() {}
	allocs := testing.AllocsPerRun(100, func() {
		e.At(e.Now(), nop)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire of a pooled event allocated %.1f objects, want 0", allocs)
	}
}

// TestSemaphoreFIFONoBypass is a property test of the documented
// admission contract: random interleavings of Acquire, TryAcquire and
// Release must admit queued waiters strictly in arrival order,
// TryAcquire must never succeed while anyone is queued, and zero-sized
// Acquires must never queue.
func TestSemaphoreFIFONoBypass(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		e := New()
		s := NewSemaphore(e, 10)
		ticket := 0   // next queue position handed out
		admitted := 0 // next queue position expected to be admitted
		e.Go("driver", func(p *Proc) {
			for i := 0; i < 400; i++ {
				switch rng.Intn(8) {
				case 0, 1, 2, 3: // blocking acquirer that holds and releases
					n := int64(1 + rng.Intn(10))
					hold := float64(rng.Intn(4)) * 1e-3
					e.Go("acq", func(q *Proc) {
						if s.count > 0 || s.used+n > s.capacity {
							// Will queue: take the next ticket and demand
							// FIFO admission.
							my := ticket
							ticket++
							s.Acquire(q, n)
							if my != admitted {
								t.Errorf("seed %d: waiter %d admitted before waiter %d", seed, my, admitted)
							}
							admitted++
						} else {
							s.Acquire(q, n)
						}
						q.Sleep(hold)
						s.Release(n)
					})
				case 4, 5: // TryAcquire must not bypass the queue
					n := int64(1 + rng.Intn(10))
					queued := s.count
					if s.TryAcquire(n) {
						if queued > 0 {
							t.Errorf("seed %d: TryAcquire(%d) bypassed %d queued waiters", seed, n, queued)
						}
						d := float64(rng.Intn(3)) * 1e-3
						e.After(d, func() { s.Release(n) })
					}
				case 6: // zero-sized Acquire returns even with a full queue
					s.Acquire(p, 0)
				case 7:
					p.Sleep(float64(rng.Intn(3)) * 1e-3)
				}
			}
		})
		e.Run()
		if admitted != ticket {
			t.Errorf("seed %d: %d waiters queued but only %d admitted", seed, ticket, admitted)
		}
		if s.InUse() != 0 {
			t.Errorf("seed %d: %d units still held after drain", seed, s.InUse())
		}
		if s.Waiting() != 0 {
			t.Errorf("seed %d: %d waiters still queued after drain", seed, s.Waiting())
		}
	}
}

// TestSemaphoreRingGrowth exercises ring-buffer wraparound: interleave
// admissions and arrivals so head walks around the backing array while
// it grows.
func TestSemaphoreRingGrowth(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 1)
	order := make([]int, 0, 64)
	e.Go("driver", func(p *Proc) {
		s.Acquire(p, 1) // everyone below queues behind this
		for i := 0; i < 64; i++ {
			i := i
			e.Go("w", func(q *Proc) {
				s.Acquire(q, 1)
				order = append(order, i)
				s.Release(1)
			})
			// Let a few spawn, then admit some so head advances while
			// the ring is partially full.
			if i%5 == 4 {
				p.Sleep(1e-3)
			}
		}
		s.Release(1)
	})
	e.Run()
	if len(order) != 64 {
		t.Fatalf("admitted %d of 64 waiters", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order[%d] = %d, want %d (full order %v)", i, got, i, order)
		}
	}
}

// TestRunRetiresIdleWorkers: pooled worker goroutines must not outlive
// the run that used them. Several environments each start thousands of
// processes; once every Run has drained its queue the goroutine count
// returns to where it started. Go after a drain still works: it spawns
// a fresh worker.
func TestRunRetiresIdleWorkers(t *testing.T) {
	start := runtime.NumGoroutine()
	var envs []*Env
	for i := 0; i < 3; i++ {
		e := New()
		for j := 0; j < 2000; j++ {
			e.Go("p", func(p *Proc) { p.Sleep(float64(j % 7)) })
		}
		e.Run()
		if e.Procs() != 0 {
			t.Fatalf("env %d: %d processes left after Run", i, e.Procs())
		}
		envs = append(envs, e)
	}
	// Retired goroutines exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after the runs drained, started with %d", n, start)
	}

	ran := false
	envs[0].Go("again", func(p *Proc) { ran = true })
	envs[0].Run()
	if !ran {
		t.Fatal("process started after a drain never ran")
	}
}
