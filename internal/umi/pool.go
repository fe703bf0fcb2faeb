package umi

import (
	"sync"
	"time"

	"umi/internal/tracelog"
)

// This file is the asynchronous profile-analysis pipeline. The paper runs
// the analyzer synchronously: the guest stalls while every live profile is
// mini-simulated. The pipeline decouples the two so the guest keeps
// executing while analysis proceeds on other cores, without changing a
// single reported number.
//
// The constraint that shapes the design is the analyzer's logical cache:
// it is deliberately shared across profiles and across invocations (§5),
// so the mini-simulation is order-sensitive and cannot be sharded. The
// pipeline therefore splits each profile's analysis into
//
//   - a stateless half (materializing address columns, dominant-stride
//     discovery) fanned out to AnalyzerWorkers preparation goroutines, and
//   - the stateful half (cache simulation, per-PC merge) executed by one
//     sequencer goroutine in exactly the submission order,
//
// with the guest double-buffering profiles across the hand-off: the
// submitted buffer is owned by the pipeline until analyzed, and the
// trace's next instrumentation records into a recycled or fresh buffer.
// Bounded queues give backpressure end to end: a guest far ahead of the
// sequencer blocks on submit rather than queueing unbounded work.
//
// Memory visibility follows the hand-offs: the guest's writes to a profile
// happen before the SharedPrep enqueue (a mutex hand-off to the worker that
// pops it); a preparation worker's writes to job.prep happen before
// close(job.ready); the sequencer's writes to analyzer state happen before
// a barrier or close acknowledgement is observed by the guest.

// analysisJob is one filled profile handed from the guest thread to the
// pipeline, with the delinquency threshold captured at hand-off time.
type analysisJob struct {
	profile *AddressProfile
	alpha   float64
	prep    []colPrep
	// buf owns prep's backing storage. The worker that prepares the job
	// attaches a recycled (or fresh) prepBuf; the sequencer returns it to
	// the pool once the job's analysis has consumed prep.
	buf   *prepBuf
	ready chan struct{} // closed by the preparation worker
}

// invocation is one analyzer invocation's worth of jobs, already in the
// fixed PC-sorted merge order, stamped with the guest cycle count at
// hand-off so the flush-gap check sees the same clock as a synchronous
// run would.
type invocation struct {
	cycles uint64
	// cost is the modelled analysis cost the guest charged at hand-off,
	// carried along so the sequencer's analyzer-end event reports the same
	// span duration an inline run would.
	cost uint64
	jobs []*analysisJob
	// barrier, when non-nil, marks a synchronization point instead of an
	// invocation: the sequencer closes it without touching the analyzer.
	barrier chan struct{}
}

// Pipeline queue depths. The preparation queue bound scales with the
// worker count (newAnalyzerPool); seqDepth bounds how many whole
// invocations the guest may run ahead of the sequencer; recycleDepth
// bounds the idle-buffer pool.
const (
	seqDepth     = 4
	recycleDepth = 8
)

// analyzerPool runs the pipeline for one System. It owns the analyzer
// between start and drain points: the guest must not touch analyzer state
// while invocations are in flight.
//
// Preparation always runs on a SharedPrep lane: the pool serving many
// sessions at once when Config.SharedPrep names one (the daemon shape,
// with round-robin fairness across sessions), or a private one this pool
// starts and stops (the standalone, one-session-per-process shape). The
// sequencer, the hand-off protocol, and every visible result are
// identical either way.
type analyzerPool struct {
	an        *Analyzer
	consumers []ProfileConsumer
	met       *Metrics
	tlog      *tracelog.Log

	prep     *SharedPrep
	lane     *prepLane
	ownsPrep bool // prep is private: close stops it

	seqQ    chan invocation
	recycle chan *AddressProfile
	// prepBufs recycles preparation buffers from the sequencer (which
	// finishes with them) back to the workers (which fill them), so
	// steady-state preparation allocates nothing. Same best-effort
	// discipline as the profile recycle queue: an empty pool means the
	// worker allocates, a full one lets the GC take the buffer.
	prepBufs chan *prepBuf

	seqWG  sync.WaitGroup
	closed bool
}

// newAnalyzerPool starts the pipeline. With shared nil it starts a private
// SharedPrep of the given worker count, whose queue bound of two jobs per
// worker is the backpressure point for a guest outrunning preparation.
func newAnalyzerPool(an *Analyzer, consumers []ProfileConsumer, met *Metrics, tlog *tracelog.Log, workers int, shared *SharedPrep) *analyzerPool {
	p := &analyzerPool{
		an:        an,
		consumers: consumers,
		met:       met,
		tlog:      tlog,
		prep:      shared,
		seqQ:      make(chan invocation, seqDepth),
		recycle:   make(chan *AddressProfile, recycleDepth),
	}
	if shared == nil {
		p.prep = NewSharedPrep(workers, 2*workers)
		p.ownsPrep = true
	}
	p.prepBufs = make(chan *prepBuf, 2*p.prep.Workers()+seqDepth)
	p.lane = p.prep.register(p)
	p.seqWG.Add(1)
	go p.sequencer()
	return p
}

// prepareJob runs the stateless half of one job's analysis — column
// materialization and stride discovery — and signals the sequencer. Called
// by a SharedPrep worker; never by the sequencer.
func (p *analyzerPool) prepareJob(job *analysisJob) {
	start := time.Now()
	select {
	case job.buf = <-p.prepBufs:
	default:
		job.buf = new(prepBuf)
	}
	job.prep = job.buf.prepare(job.profile)
	ns := uint64(time.Since(start))
	p.met.PrepBusyNs.Add(ns)
	p.met.PrepLatency.Observe(ns)
	close(job.ready)
}

// sequencer is the single goroutine that owns the analyzer's logical
// cache. It replays invocations, and jobs within each invocation, in
// submission order — the fixed merge order that makes every worker count
// produce identical reports.
func (p *analyzerPool) sequencer() {
	defer p.seqWG.Done()
	for inv := range p.seqQ {
		if inv.barrier != nil {
			close(inv.barrier)
			continue
		}
		// The latency observation spans the whole invocation, including
		// waits on preparation workers — it is the end-to-end time an
		// inline run would have stalled the guest for.
		start := time.Now()
		refs0, miss0 := p.an.SimulatedRefs, p.an.totalMiss
		p.an.BeginInvocation(inv.cycles)
		for _, job := range inv.jobs {
			<-job.ready
			p.an.analyzeWithPrep(job.profile, job.alpha, job.prep)
			// The analysis copied everything it keeps (columns included),
			// so the preparation buffer can go back to the workers.
			select {
			case p.prepBufs <- job.buf:
			default:
			}
			job.prep, job.buf = nil, nil
			for _, c := range p.consumers {
				c.Consume(job.profile)
			}
			select {
			case p.recycle <- job.profile:
			default: // recycling is best-effort; let the GC have it
			}
		}
		// History capture runs here, on the analyzer's owner thread, with
		// the hand-off cycle stamp — the same point and clock the inline
		// path uses, so both paths record byte-identical windows.
		p.an.captureWindow(inv.cycles, p.consumers)
		elapsed := uint64(time.Since(start))
		p.met.AnalysisLatency.Observe(elapsed)
		p.met.SeqBusyNs.Add(elapsed)
		p.met.AnalyzeWallNs.Add(elapsed)
		p.met.RecycleQueue.Set(int64(len(p.recycle)))
		// The span is stamped with the hand-off cycles and the modelled
		// cost — the same deterministic (ts, dur) an inline run reports —
		// while the wall-clock pipeline latency lives in WallNs.
		p.tlog.Emit(tracelog.Event{Type: tracelog.EvAnalyzerEnd,
			Cycles: inv.cycles, Dur: inv.cost,
			Arg1: p.an.SimulatedRefs - refs0, Arg2: p.an.totalMiss - miss0,
			Arg3: uint64(len(p.an.delinquent))})
	}
}

// submit hands one invocation to the pipeline. jobs must already be in
// the fixed merge order; ownership of every job's profile transfers to
// the pipeline. The call blocks when the bounded queues are full — the
// backpressure that keeps the guest from racing ahead of analysis. It
// returns the preparation queue depth it recorded in the PrepQueue gauge,
// for the caller's pipeline.submit event.
func (p *analyzerPool) submit(cycles, cost uint64, jobs []*analysisJob) int {
	for _, job := range jobs {
		job.ready = make(chan struct{})
		p.prep.enqueue(p.lane, job)
	}
	p.seqQ <- invocation{cycles: cycles, cost: cost, jobs: jobs}
	p.met.Submits.Inc()
	// Queue depths are instantaneous, but the gauges' high-water marks are
	// what the self-overhead report cares about: sustained depth at submit
	// time means the guest is outrunning analysis. With a daemon-wide pool
	// the depth is the fleet-wide pending total.
	depth := p.prep.QueueDepth()
	p.met.PrepQueue.Set(int64(depth))
	p.met.SeqBacklog.Set(int64(len(p.seqQ)))
	return depth
}

// drain blocks until every invocation submitted so far has been fully
// analyzed. The pipeline stays usable afterwards; analyzer state is safe
// to read until the next submit.
func (p *analyzerPool) drain() {
	b := make(chan struct{})
	p.seqQ <- invocation{barrier: b}
	<-b
}

// close drains the pipeline and stops its goroutines. The pool must not
// be used afterwards. This session's lane is detached after the
// sequencer's shutdown has consumed every outstanding job; a private
// SharedPrep is then closed, while a daemon-wide one stays up for the
// other sessions it serves.
func (p *analyzerPool) close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.seqQ)
	p.seqWG.Wait()
	p.prep.unregister(p.lane)
	p.lane = nil
	if p.ownsPrep {
		p.prep.Close()
	}
}

// takeRecycled returns an analyzed profile buffer reinitialized for the
// given operations, or nil when none is idle. Never blocks: an empty
// recycle queue just means the caller allocates.
func (p *analyzerPool) takeRecycled(ops []uint64, isLoad []bool, rows int) *AddressProfile {
	select {
	case prof := <-p.recycle:
		prof.Reinit(ops, isLoad, rows)
		return prof
	default:
		return nil
	}
}
