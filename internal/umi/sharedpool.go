package umi

import "sync"

// SharedPrep is a pool of stateless preparation workers that many
// concurrent profiling sessions can share. Every analysis pipeline
// (pool.go) prepares through one: a daemon-wide pool, or a private pool
// the pipeline starts for its session alone. Each session keeps its own
// sequencer (the logical cache is order-sensitive per session and cannot
// be shared), but the stateless half of analysis — dominant-stride
// discovery — carries no session state at all, so one worker fleet can
// serve every session.
//
// Two properties shape the implementation:
//
//   - Fairness. Each registered session owns a lane (a FIFO of pending
//     jobs); workers drain lanes round-robin, taking one job per visit, so
//     a session flooding thousands of jobs delays a co-tenant's next job
//     by at most one job per active lane per round — never by the length
//     of the flooder's backlog.
//   - Bounded memory. The queue bound is global: enqueue blocks once
//     maxQueue jobs are pending across all lanes, pushing backpressure
//     into the flooding session's guest thread exactly as the per-session
//     pipeline's bounded channels do. QueueDepth exposes the instantaneous
//     total for admission control at the service layer.
//
// Determinism is inherited, not engineered: preparation is stateless and
// each job signals completion via its own ready channel, so the order
// workers finish jobs in cannot affect the order each session's sequencer
// consumes them in. A session run through a SharedPrep of any width
// produces byte-identical reports to a standalone run.
type SharedPrep struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on enqueue, dequeue, and close

	lanes    []*prepLane
	rr       int // round-robin scan start, advanced past each pop
	queued   int // jobs enqueued and not yet picked up, across all lanes
	maxQueue int
	closed   bool

	workers int
	wg      sync.WaitGroup
}

// prepLane is one session's FIFO of pending preparation jobs. The owner
// pool supplies the recycled preparation buffers and the metrics registry
// the prepared jobs account against.
type prepLane struct {
	owner *analyzerPool
	jobs  []*analysisJob
	head  int
}

func (l *prepLane) empty() bool { return l.head >= len(l.jobs) }

func (l *prepLane) push(job *analysisJob) {
	// Compact the consumed prefix once it dominates the slice, so a
	// long-lived lane does not grow without bound.
	if l.head > 64 && l.head*2 > len(l.jobs) {
		n := copy(l.jobs, l.jobs[l.head:])
		l.jobs = l.jobs[:n]
		l.head = 0
	}
	l.jobs = append(l.jobs, job)
}

func (l *prepLane) pop() *analysisJob {
	job := l.jobs[l.head]
	l.jobs[l.head] = nil
	l.head++
	if l.empty() {
		l.jobs = l.jobs[:0]
		l.head = 0
	}
	return job
}

// DefaultSharedQueueBound is the global pending-job bound used when
// NewSharedPrep is given a non-positive maxQueue.
const DefaultSharedQueueBound = 256

// NewSharedPrep starts a shared preparation pool with the given worker
// count (minimum 1) and global queue bound (non-positive selects
// DefaultSharedQueueBound). Close stops it.
func NewSharedPrep(workers, maxQueue int) *SharedPrep {
	if workers < 1 {
		workers = 1
	}
	if maxQueue <= 0 {
		maxQueue = DefaultSharedQueueBound
	}
	p := &SharedPrep{workers: workers, maxQueue: maxQueue}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *SharedPrep) Workers() int { return p.workers }

// QueueDepth returns the jobs currently enqueued and not yet picked up,
// across all sessions — the admission-control signal: sustained depth near
// the bound means the fleet is outrunning preparation.
func (p *SharedPrep) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// QueueBound returns the global pending-job bound.
func (p *SharedPrep) QueueBound() int { return p.maxQueue }

// Lanes reports the number of attached session pipelines.
func (p *SharedPrep) Lanes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lanes)
}

// register attaches a session's pipeline and returns its lane.
func (p *SharedPrep) register(ap *analyzerPool) *prepLane {
	l := &prepLane{owner: ap}
	p.mu.Lock()
	p.lanes = append(p.lanes, l)
	p.mu.Unlock()
	return l
}

// unregister detaches a lane. The caller must have drained the session's
// pipeline first (analyzerPool.close does), so the lane is empty: every
// enqueued job belongs to a submitted invocation, and the sequencer's
// shutdown waited on each job's ready channel.
func (p *SharedPrep) unregister(l *prepLane) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, lane := range p.lanes {
		if lane == l {
			p.lanes = append(p.lanes[:i], p.lanes[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			break
		}
	}
	if len(p.lanes) > 0 {
		p.rr %= len(p.lanes)
	} else {
		p.rr = 0
	}
}

// enqueue hands one job to the pool on behalf of a lane. It blocks while
// the global queue is at its bound — backpressure lands on the submitting
// session's guest thread only; co-tenants' enqueues proceed as soon as a
// worker frees a slot.
func (p *SharedPrep) enqueue(l *prepLane, job *analysisJob) {
	p.mu.Lock()
	for p.queued >= p.maxQueue && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		// A closed pool can no longer prepare; complete the job inline so
		// the submitting sequencer never deadlocks on job.ready. This only
		// happens when a session outlives its daemon's pool, which the
		// service layer's drain ordering prevents — the fallback keeps the
		// failure mode a slow path, not a hang.
		p.mu.Unlock()
		l.owner.prepareJob(job)
		return
	}
	l.push(job)
	p.queued++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// worker drains lanes round-robin: one job per lane visit, cursor advanced
// past the chosen lane, so every active lane is served once per round
// regardless of backlog skew.
func (p *SharedPrep) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if job, lane := p.next(); job != nil {
			p.queued--
			p.mu.Unlock()
			p.cond.Broadcast() // a queue slot freed: unblock enqueuers
			lane.owner.prepareJob(job)
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// next pops one job round-robin, returning nil when every lane is empty.
// Caller holds p.mu.
func (p *SharedPrep) next() (*analysisJob, *prepLane) {
	n := len(p.lanes)
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		if l := p.lanes[idx]; !l.empty() {
			p.rr = (idx + 1) % n
			return l.pop(), l
		}
	}
	return nil, nil
}

// Close stops the workers after the pending queue drains. Sessions must be
// drained and closed first (the service layer's shutdown ordering); any
// job enqueued after Close is prepared inline by the enqueuer.
func (p *SharedPrep) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
