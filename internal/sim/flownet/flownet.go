package flownet

import (
	"fmt"
	"math"

	"blobvfs/internal/sim"
)

// Link is a capacity constraint in bytes per second. Create links with
// Net.NewLink so they receive deterministic identities.
type Link struct {
	id       int
	name     string
	capacity float64

	// scratch state used during recompute
	residual   float64
	unassigned int
	mark       int // generation marker for the dirty-link collection pass

	// TotalBytes accumulates all bytes ever carried by this link.
	TotalBytes float64
}

// Name returns the diagnostic name of the link.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's capacity in bytes per second.
func (l *Link) Capacity() float64 { return l.capacity }

// Flow is an in-flight transfer.
type Flow struct {
	links     []*Link
	remaining float64
	rate      float64
	assigned  bool
	mark      int // generation marker for the affected-component pass
	done      sim.Cond
	finished  bool

	// pooled flows (Transfer — their handles never escape)
	// recycle onto the net's free list at completion.
	pooled bool
}

// Rate returns the flow's current allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Finished reports whether the flow has completed.
func (f *Flow) Finished() bool { return f.finished }

// Net manages the active flow set and completion scheduling.
type Net struct {
	env    *sim.Env
	flows  []*Flow // insertion order; order preserved on removal
	last   float64
	timer  *sim.Event
	nextID int
	gen    int

	// completeFn is the timer callback, bound once: the method value
	// n.complete allocates a closure on every rearm otherwise, and the
	// net rearms on every flow arrival and departure.
	completeFn func()

	// Scratch storage reused across recomputes so the steady-state flow
	// churn of a large simulation allocates nothing.
	scratchLinks []*Link
	scratchFlows []*Flow
	finishedScr  []*Flow
	freeFlows    []*Flow

	// Completed counts finished flows; TotalBytes counts bytes accepted.
	Completed  int64
	TotalBytes float64
}

// New returns an empty flow network on env.
func New(env *sim.Env) *Net {
	n := &Net{env: env}
	n.completeFn = n.complete
	return n
}

// NewLink creates a link with the given capacity in bytes per second.
func (n *Net) NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("flownet: link %q capacity must be positive", name))
	}
	l := &Link{id: n.nextID, name: name, capacity: capacity}
	n.nextID++
	return l
}

// Active returns the number of in-flight flows.
func (n *Net) Active() int { return len(n.flows) }

// Transfer moves bytes across the given links, blocking p until the
// flow completes under max-min fair sharing with all concurrent flows.
// A transfer with no links or zero bytes returns immediately.
func (n *Net) Transfer(p *sim.Proc, bytes float64, links ...*Link) {
	f := n.start(bytes, true, links)
	if f == nil {
		return
	}
	n.WaitFlow(p, f)
}

// Start begins an asynchronous transfer and returns its Flow handle, or
// nil if there is nothing to do. Use WaitFlow to join it.
func (n *Net) Start(bytes float64, links ...*Link) *Flow {
	return n.start(bytes, false, links)
}

func (n *Net) getFlow(pooled bool) *Flow {
	if !pooled {
		return &Flow{}
	}
	if k := len(n.freeFlows); k > 0 {
		f := n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
		return f
	}
	return &Flow{pooled: true}
}

func (n *Net) start(bytes float64, pooled bool, links []*Link) *Flow {
	if bytes <= 0 || len(links) == 0 {
		return nil
	}
	n.advance()
	f := n.getFlow(pooled)
	f.links = links
	f.remaining = bytes
	n.flows = append(n.flows, f)
	for _, l := range links {
		l.TotalBytes += bytes
	}
	n.TotalBytes += bytes
	n.beginDirty()
	n.markLinks(links)
	n.recomputeDirty()
	n.reschedule()
	return f
}

// WaitFlow blocks p until f completes. Waiting on a nil or finished
// flow returns immediately.
func (n *Net) WaitFlow(p *sim.Proc, f *Flow) {
	if f == nil || f.finished {
		return
	}
	f.done.Wait(p)
}

// advance credits elapsed time to every active flow at its current rate.
func (n *Net) advance() {
	now := n.env.Now()
	dt := now - n.last
	n.last = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// beginDirty opens a new dirty set; markLinks seeds it. Together with
// recomputeDirty they make rate recomputation incremental: only the
// connected component (flows transitively sharing links) around the
// changed flows is refilled, and untouched bottleneck groups keep their
// rates. Max-min rates are per-component, and the filling arithmetic
// below is confined to a component, so the skipped components hold
// exactly — bit for bit — the rates a full recompute would assign them.
func (n *Net) beginDirty() {
	n.gen++
	n.scratchLinks = n.scratchLinks[:0]
}

func (n *Net) markLinks(links []*Link) {
	for _, l := range links {
		if l.mark != n.gen {
			l.mark = n.gen
			n.scratchLinks = append(n.scratchLinks, l)
		}
	}
}

// recomputeDirty expands the seeded dirty links to their full connected
// component and refills it.
func (n *Net) recomputeDirty() {
	if len(n.flows) == 0 || len(n.scratchLinks) == 0 {
		return
	}
	// Fixpoint: a flow touching any marked link joins the component and
	// marks the rest of its links; repeat until no flow joins. The pass
	// count is bounded by the component's link-sharing diameter, which
	// is tiny in practice (uplink–downlink topologies converge in two).
	for {
		changed := false
		for _, f := range n.flows {
			if f.mark == n.gen {
				continue
			}
			touched := false
			for _, l := range f.links {
				if l.mark == n.gen {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			f.mark = n.gen
			changed = true
			n.markLinks(f.links)
		}
		if !changed {
			break
		}
	}
	// Collect the affected flows in n.flows insertion order: progressive
	// filling subtracts shares in flow-iteration order, so preserving the
	// global order keeps the float arithmetic bitwise identical to a full
	// recompute restricted to this component.
	n.scratchFlows = n.scratchFlows[:0]
	for _, f := range n.flows {
		if f.mark == n.gen {
			n.scratchFlows = append(n.scratchFlows, f)
		}
	}
	n.fill(n.scratchFlows, n.scratchLinks)
}

// fill performs progressive filling over the given flows and links,
// which must form a union of whole components.
func (n *Net) fill(flows []*Flow, links []*Link) {
	for _, f := range flows {
		f.assigned = false
		f.rate = 0
	}
	for _, l := range links {
		l.residual = l.capacity
		l.unassigned = 0
	}
	for _, f := range flows {
		for _, l := range f.links {
			l.unassigned++
		}
	}
	unassigned := len(flows)
	for unassigned > 0 {
		// Find the bottleneck: the link offering the smallest fair share.
		// Ties resolve to the earliest-created link; max-min allocations
		// are unique, so tie order only affects intermediate state.
		var bottleneck *Link
		share := math.Inf(1)
		for _, l := range links {
			if l.unassigned == 0 {
				continue
			}
			s := l.residual / float64(l.unassigned)
			if s < share || (s == share && bottleneck != nil && l.id < bottleneck.id) {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break // cannot happen: every flow traverses at least one link
		}
		// Freeze every unassigned flow crossing the bottleneck at the
		// fair share and charge it along each of the flow's links.
		for _, f := range flows {
			if f.assigned {
				continue
			}
			crosses := false
			for _, l := range f.links {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = share
			f.assigned = true
			unassigned--
			for _, l := range f.links {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.unassigned--
			}
		}
	}
}

// reschedule rearms the completion timer for the earliest-finishing
// flow. The completion instant is forced strictly past the current
// time: a residual small enough that now+dt rounds back to now (dt
// below the clock's ULP) would otherwise rearm a zero-progress timer
// forever.
func (n *Net) reschedule() {
	if n.timer != nil {
		n.env.Cancel(n.timer)
		n.timer = nil
	}
	if len(n.flows) == 0 {
		return
	}
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	target := n.env.Now() + next
	if target <= n.env.Now() {
		target = math.Nextafter(n.env.Now(), math.Inf(1))
	}
	n.timer = n.env.At(target, n.completeFn)
}

// complete settles progress, finishes any drained flows, and rearms.
func (n *Net) complete() {
	n.timer = nil
	n.advance()
	const eps = 0.5 // bytes; sub-byte residue is float noise
	kept := n.flows[:0]
	finished := n.finishedScr[:0]
	for _, f := range n.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = kept
	if len(finished) > 0 {
		n.beginDirty()
	}
	for _, f := range finished {
		f.finished = true
		f.remaining = 0
		n.Completed++
		n.markLinks(f.links)
		f.done.Broadcast(n.env)
		if f.pooled {
			f.links = nil
			f.rate = 0
			f.assigned = false
			f.finished = false
			f.mark = 0
			n.freeFlows = append(n.freeFlows, f)
		}
	}
	if len(finished) > 0 {
		n.recomputeDirty()
	}
	for i := range finished {
		finished[i] = nil
	}
	n.finishedScr = finished[:0]
	n.reschedule()
}
