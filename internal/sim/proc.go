package sim

import "time"

// Proc is a simulated process: a goroutine that runs cooperatively under
// the environment's scheduler. At most one process executes at a time;
// a process gives up control by sleeping, waiting on a Cond, or using a
// resource, and the scheduler resumes it when the corresponding virtual
// time arrives.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	env      *Env
	name     string
	resume   chan struct{}
	parked   bool // blocked in yield (or at startup), awaiting resume
	finished bool
	done     Cond
}

// worker is a reusable goroutine that runs processes one after another.
// A 10k-instance flash crowd starts millions of short-lived activities
// (chunk fetchers, write-backs, broadcast hops); spawning a fresh OS
// goroutine plus resume channel for each made Env.Go the second-largest
// allocation site of the large simulations. Workers park on their job
// channel between processes and are recycled through Env.freeWorkers.
type worker struct {
	resume chan struct{}
	jobs   chan workerJob
}

type workerJob struct {
	p  *Proc
	fn func(p *Proc)
}

func newWorker(e *Env) *worker {
	w := &worker{resume: make(chan struct{}), jobs: make(chan workerJob, 1)}
	go func() {
		for j := range w.jobs {
			w.run(e, j)
		}
	}()
	return w
}

// run executes one process on the worker.
//
// The completion handshake runs in a defer so that a process exiting
// abnormally — a panic unwinding, or runtime.Goexit as called by
// t.Fatal inside simulation tests — still returns control to the
// scheduler instead of wedging the whole simulation. An abnormal exit
// kills the worker goroutine with it, so only cleanly-finished workers
// return to the free pool (the append is ordered before the parked
// handshake, which is what makes it visible to the scheduler without a
// lock).
func (w *worker) run(e *Env, j workerJob) {
	normal := false
	defer func() {
		p := j.p
		p.finished = true
		e.procs--
		p.done.Broadcast(e)
		if normal {
			e.freeWorkers = append(e.freeWorkers, w)
		}
		e.parked <- struct{}{}
	}()
	<-w.resume
	j.fn(j.p)
	normal = true
}

// Go starts fn as a new process at the current virtual time. The name is
// used only for diagnostics.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	var w *worker
	if n := len(e.freeWorkers); n > 0 {
		w = e.freeWorkers[n-1]
		e.freeWorkers[n-1] = nil
		e.freeWorkers = e.freeWorkers[:n-1]
	} else {
		w = newWorker(e)
	}
	p := &Proc{env: e, name: name, resume: w.resume, parked: true}
	e.procs++
	w.jobs <- workerJob{p: p, fn: fn}
	e.resumeAt(e.now, p)
	return p
}

// handoff transfers control from the scheduler to p and blocks until p
// parks again (by yielding or finishing). It must only be called from
// the scheduler's goroutine, i.e. from inside an event function.
//
// The invariant checks catch double-resume bugs (a process released by
// two pending events) at their source instead of as downstream
// deadlocks; the flags are only ever touched under the one-runner
// discipline, so there is no race.
func (e *Env) handoff(p *Proc) {
	if p.finished {
		panic("sim: resume of finished process " + p.name)
	}
	if !p.parked {
		panic("sim: double resume of process " + p.name)
	}
	p.parked = false
	p.resume <- struct{}{}
	if debugSlowEvents {
		select {
		case <-e.parked:
		case <-time.After(10 * time.Second):
			panic("sim: process " + p.name + " was resumed but never parked back")
		}
		return
	}
	<-e.parked
}

// yield parks the process and returns control to the scheduler. The
// process must have arranged (before calling yield) for some future
// event to resume it, or it will sleep forever.
func (p *Proc) yield() {
	p.parked = true
	p.env.parked <- struct{}{}
	<-p.resume
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }

// Sleep suspends the process for d seconds of virtual time. A negative
// duration panics; zero yields to other events scheduled at this time.
func (p *Proc) Sleep(d float64) {
	e := p.env
	if d < 0 {
		panic("sim: negative sleep")
	}
	e.resumeAt(e.now+d, p)
	p.yield()
}

// Join blocks until q finishes. Joining an already finished process
// returns immediately.
func (p *Proc) Join(q *Proc) {
	if q.finished {
		return
	}
	q.done.Wait(p)
}

// JoinAll blocks until every process in procs has finished.
func (p *Proc) JoinAll(procs []*Proc) {
	for _, q := range procs {
		p.Join(q)
	}
}

// Cond is a waitable condition: processes park on it with Wait and are
// released by Signal or Broadcast. Release is FIFO and takes effect as
// zero-delay events, preserving the one-process-at-a-time invariant.
// The zero value is ready to use.
type Cond struct {
	waiters []*Proc
}

// Wait parks p until the condition is signaled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.yield()
}

// Signal releases the longest-waiting process, if any. The remaining
// waiters shift down in place, so the backing array is retained and
// never re-grown (re-slicing would strand the head slots forever).
func (c *Cond) Signal(e *Env) {
	if len(c.waiters) == 0 {
		return
	}
	q := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	e.resumeAt(e.now, q)
}

// Broadcast releases all waiting processes in FIFO order. A single
// waiter resumes through one plain event; multiple waiters ride one
// batch event (instead of one scheduled event per waiter), which
// dispatches them back-to-back in the same order the per-waiter events
// would have run — their sequence numbers were consecutive, so no
// other event could have interleaved. The Cond keeps its backing
// array either way.
func (c *Cond) Broadcast(e *Env) {
	switch len(c.waiters) {
	case 0:
		return
	case 1:
		q := c.waiters[0]
		c.waiters[0] = nil
		c.waiters = c.waiters[:0]
		e.resumeAt(e.now, q)
		return
	}
	ws := e.getBatch()
	ws = append(ws, c.waiters...)
	for i := range c.waiters {
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	e.resumeBatch(ws)
}

// Waiters returns the number of processes currently parked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
