package sim

import (
	"fmt"
	"math"
	"os"
)

// Semaphore is a counting semaphore measured in arbitrary units (bytes,
// slots, ...). Acquisition is FIFO: a large request at the head of the
// queue blocks later small ones, which prevents starvation.
//
// The admission contract, precisely:
//
//   - Acquire with n <= 0 returns immediately without queuing and
//     without checking the waiter queue. A zero-sized request holds no
//     units, so admitting it ahead of the queue cannot starve anyone.
//   - TryAcquire never bypasses queued waiters: while any process is
//     queued, TryAcquire fails even if enough units are free — free
//     units belong to the queue head. Callers spinning on TryAcquire
//     therefore cannot starve the queue.
//   - Release admits queued waiters strictly FIFO, stopping at the
//     first waiter that does not fit.
//
// TestSemaphoreFIFONoBypass pins this contract under random
// interleavings of all three operations.
//
// Release may be called from any simulation context (process or event
// callback); Acquire must be called from a process.
//
// Waiters queue in a ring buffer (head + count over a power-of-two-ish
// backing array) rather than a re-sliced slice: re-slicing `waiters[1:]`
// on every admission permanently strands the popped head slots, so the
// backing array is re-grown forever under sustained churn.
type Semaphore struct {
	env      *Env
	capacity int64
	used     int64
	waiters  []semWait // ring: count entries starting at head
	head     int
	count    int
}

type semWait struct {
	p *Proc
	n int64
}

// NewSemaphore returns a semaphore with the given capacity in units.
func NewSemaphore(env *Env, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{env: env, capacity: capacity}
}

// Capacity returns the total capacity.
func (s *Semaphore) Capacity() int64 { return s.capacity }

// InUse returns the number of units currently held.
func (s *Semaphore) InUse() int64 { return s.used }

// Waiting returns the number of queued processes.
func (s *Semaphore) Waiting() int { return s.count }

func (s *Semaphore) pushWaiter(w semWait) {
	if s.count == len(s.waiters) {
		grown := make([]semWait, 2*s.count+8)
		for i := 0; i < s.count; i++ {
			grown[i] = s.waiters[(s.head+i)%len(s.waiters)]
		}
		s.waiters = grown
		s.head = 0
	}
	s.waiters[(s.head+s.count)%len(s.waiters)] = w
	s.count++
}

func (s *Semaphore) popWaiter() semWait {
	w := s.waiters[s.head]
	s.waiters[s.head] = semWait{}
	s.head = (s.head + 1) % len(s.waiters)
	s.count--
	return w
}

// Acquire blocks p until n units are available and takes them. Requests
// larger than the capacity panic, since they could never be satisfied.
// n <= 0 returns immediately without queuing (see the type comment).
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if n > s.capacity {
		panic("sim: semaphore request exceeds capacity")
	}
	if n <= 0 {
		return
	}
	if s.count == 0 && s.used+n <= s.capacity {
		s.used += n
		return
	}
	s.pushWaiter(semWait{p, n})
	p.yield()
}

// TryAcquire takes n units if immediately available, reporting success.
// It fails whenever processes are queued, even if n units are free:
// those units belong to the queue head (see the type comment).
func (s *Semaphore) TryAcquire(n int64) bool {
	if n <= 0 {
		return true
	}
	if s.count == 0 && s.used+n <= s.capacity {
		s.used += n
		return true
	}
	return false
}

// Release returns n units and admits queued waiters in FIFO order.
func (s *Semaphore) Release(n int64) {
	if n <= 0 {
		return
	}
	s.used -= n
	if s.used < 0 {
		panic("sim: semaphore released more than acquired")
	}
	for s.count > 0 {
		w := s.waiters[s.head]
		if s.used+w.n > s.capacity {
			break
		}
		s.used += w.n
		s.popWaiter()
		s.env.resumeAt(s.env.now, w.p)
	}
}

// PSPool is a processor-sharing resource with a fixed service capacity
// in units per second (e.g. a disk delivering 55 MB/s). All active jobs
// progress simultaneously, each receiving capacity/len(jobs); completion
// events are rescheduled whenever the job set changes. This matches the
// fair-sharing behaviour of an OS block layer or a NIC under many
// streams far better than FCFS does, and is what shapes the contention
// curves of the paper's figures.
type PSPool struct {
	env      *Env
	name     string
	capacity float64
	jobs     []*psJob
	last     float64 // virtual time of last remaining-work update
	timer    *Event

	// completeFn is the timer callback, bound once: taking the method
	// value pool.complete inside reschedule allocates a closure on every
	// rearm, and the pool rearms on every job arrival and departure.
	completeFn func()
	// freeJobs recycles finished job records.
	freeJobs []*psJob

	// BusyTime accumulates the total virtual time during which at least
	// one job was active; useful for utilization metrics.
	BusyTime float64
	// Served accumulates total units of work completed.
	Served float64
}

type psJob struct {
	remaining float64
	done      Cond
	// fn, when set, is the completion callback of a UseAsync job; such
	// jobs have no waiting process and signal through an event instead.
	fn func()
}

// NewPSPool returns a processor-sharing pool with the given capacity in
// units per second.
func NewPSPool(env *Env, name string, capacity float64) *PSPool {
	if capacity <= 0 {
		panic("sim: PSPool capacity must be positive")
	}
	pool := &PSPool{env: env, name: name, capacity: capacity}
	pool.completeFn = pool.complete
	return pool
}

// Capacity returns the pool's total service rate.
func (pool *PSPool) Capacity() float64 { return pool.capacity }

// Active returns the number of in-progress jobs.
func (pool *PSPool) Active() int { return len(pool.jobs) }

func (pool *PSPool) getJob() *psJob {
	if n := len(pool.freeJobs); n > 0 {
		j := pool.freeJobs[n-1]
		pool.freeJobs[n-1] = nil
		pool.freeJobs = pool.freeJobs[:n-1]
		return j
	}
	return &psJob{}
}

// Use blocks p while `amount` units of work are serviced by the pool,
// sharing capacity equally with all concurrent jobs.
func (pool *PSPool) Use(p *Proc, amount float64) {
	if amount <= 0 {
		return
	}
	pool.advance()
	job := pool.getJob()
	job.remaining = amount
	pool.jobs = append(pool.jobs, job)
	pool.reschedule()
	job.done.Wait(p)
}

// UseAsync services `amount` units of work and runs done (as a
// zero-delay event) when they complete, without occupying a process.
// This is the callback form of Use for event-driven code (see Env.At):
// it fires at exactly the virtual time — and event position — at which
// a blocked Use call would have been resumed.
func (pool *PSPool) UseAsync(amount float64, done func()) {
	if amount <= 0 {
		pool.env.At(pool.env.now, done)
		return
	}
	pool.advance()
	job := pool.getJob()
	job.remaining = amount
	job.fn = done
	pool.jobs = append(pool.jobs, job)
	pool.reschedule()
}

// advance applies elapsed virtual time to every active job's remaining
// work at the rate in force since the last update.
func (pool *PSPool) advance() {
	now := pool.env.now
	dt := now - pool.last
	pool.last = now
	if dt <= 0 || len(pool.jobs) == 0 {
		return
	}
	pool.BusyTime += dt
	rate := pool.capacity / float64(len(pool.jobs))
	for _, j := range pool.jobs {
		d := rate * dt
		if d > j.remaining {
			d = j.remaining
		}
		j.remaining -= d
		pool.Served += d
	}
}

// reschedule cancels any pending completion timer and schedules one for
// the earliest job completion under the current sharing rate.
//
// The completion instant is forced to be strictly after the current
// time: with a large clock value and a tiny residual, now+dt can round
// to now in float64 (dt below the clock's ULP), and a timer at the
// same instant would fire, make zero progress, and rearm forever.
func (pool *PSPool) reschedule() {
	if pool.timer != nil {
		pool.env.Cancel(pool.timer)
		pool.timer = nil
	}
	if len(pool.jobs) == 0 {
		return
	}
	minRem := pool.jobs[0].remaining
	for _, j := range pool.jobs[1:] {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	rate := pool.capacity / float64(len(pool.jobs))
	target := pool.env.now + minRem/rate
	if target <= pool.env.now {
		target = math.Nextafter(pool.env.now, math.Inf(1))
	}
	pool.timer = pool.env.At(target, pool.completeFn)
}

// complete fires when the earliest job should finish: it settles
// remaining work, releases every finished job, and rearms the timer.
func (pool *PSPool) complete() {
	pool.timer = nil
	pool.advance()
	// A job is done when its residual is float noise: below an absolute
	// sub-unit bound, or below what one nanosecond of service at the
	// current per-job rate would clear (residuals smaller than that are
	// rounding artifacts of repeated advance() subtraction).
	eps := 1e-6
	if len(pool.jobs) > 0 {
		if rateEps := pool.capacity / float64(len(pool.jobs)) * 1e-9; rateEps > eps {
			eps = rateEps
		}
	}
	kept := pool.jobs[:0]
	finished := 0
	for _, j := range pool.jobs {
		if j.remaining <= eps {
			finished++
			if j.fn != nil {
				pool.env.At(pool.env.now, j.fn)
				j.fn = nil
			} else {
				j.done.Broadcast(pool.env)
			}
			j.remaining = 0
			pool.freeJobs = append(pool.freeJobs, j)
		} else {
			kept = append(kept, j)
		}
	}
	if debugPools && finished == 0 {
		rems := make([]float64, 0, 4)
		for _, j := range pool.jobs {
			if len(rems) == 4 {
				break
			}
			rems = append(rems, j.remaining)
		}
		fmt.Fprintf(os.Stderr, "pspool %s: barren complete now=%.17g jobs=%d last=%.17g rems=%v\n",
			pool.name, pool.env.now, len(pool.jobs), pool.last, rems)
	}
	// Zero the tail so finished jobs are not retained by the backing array.
	for i := len(kept); i < len(pool.jobs); i++ {
		pool.jobs[i] = nil
	}
	pool.jobs = kept
	pool.reschedule()
}

// debugPools enables barren-completion diagnostics on stderr.
var debugPools = os.Getenv("BLOBVFS_SIM_DEBUG") != ""
