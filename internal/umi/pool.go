package umi

import (
	"sync"
	"time"

	"umi/internal/tracelog"
)

// This file is the asynchronous profile-analysis pipeline. The paper runs
// the analyzer synchronously: the guest stalls while every live profile is
// mini-simulated. The pipeline decouples the two so the guest keeps
// executing while analysis proceeds on another core, without changing a
// single reported number.
//
// The constraint that shapes the design is the analyzer's logical cache:
// it is deliberately shared across profiles and across invocations (§5),
// so the mini-simulation is order-sensitive and cannot be sharded. The
// pipeline is therefore one sequencer goroutine that owns the analyzer and
// runs each profile's whole analysis — cache replay, per-PC merge and
// stride discovery — in exactly the submission order, with the guest
// double-buffering profiles across the hand-off: the submitted buffer is
// owned by the pipeline until analyzed, and the trace's next
// instrumentation records into a recycled or fresh buffer. The bounded
// sequencer queue gives backpressure: a guest far ahead of the sequencer
// blocks on submit rather than queueing unbounded work.
//
// Memory visibility follows the hand-offs: the guest's writes to a profile
// happen before its invocation's channel send; the sequencer's writes to
// analyzer state happen before a barrier or close acknowledgement is
// observed by the guest.

// invocation is one analyzer invocation's worth of profiles, already in
// the fixed PC-sorted merge order with the delinquency threshold each was
// captured with, stamped with the guest cycle count at hand-off so the
// flush-gap check sees the same clock as a synchronous run would.
type invocation struct {
	cycles uint64
	// cost is the modelled analysis cost the guest charged at hand-off,
	// carried along so the sequencer's analyzer-end event reports the same
	// span duration an inline run would.
	cost   uint64
	profs  []*AddressProfile
	alphas []float64
	// barrier, when non-nil, marks a synchronization point instead of an
	// invocation: the sequencer closes it without touching the analyzer.
	barrier chan struct{}
}

// Pipeline queue depths: seqDepth bounds how many whole invocations the
// guest may run ahead of the sequencer; recycleDepth bounds the
// idle-buffer pool.
const (
	seqDepth     = 4
	recycleDepth = 8
)

// analyzerPool runs the pipeline for one System or Replay. It owns the
// analyzer between start and drain points: the guest must not touch
// analyzer state while invocations are in flight.
type analyzerPool struct {
	an        *Analyzer
	consumers []ProfileConsumer
	met       *Metrics
	tlog      *tracelog.Log

	seqQ    chan invocation
	recycle chan *AddressProfile

	seqWG  sync.WaitGroup
	closed bool
}

// newAnalyzerPool starts the pipeline's sequencer.
func newAnalyzerPool(an *Analyzer, consumers []ProfileConsumer, met *Metrics, tlog *tracelog.Log) *analyzerPool {
	p := &analyzerPool{
		an:        an,
		consumers: consumers,
		met:       met,
		tlog:      tlog,
		seqQ:      make(chan invocation, seqDepth),
		recycle:   make(chan *AddressProfile, recycleDepth),
	}
	p.seqWG.Add(1)
	go p.sequencer()
	return p
}

// sequencer is the single goroutine that owns the analyzer's logical
// cache. It replays invocations, and profiles within each invocation, in
// submission order — the fixed merge order that makes the pipeline
// produce the inline path's reports.
func (p *analyzerPool) sequencer() {
	defer p.seqWG.Done()
	for inv := range p.seqQ {
		if inv.barrier != nil {
			close(inv.barrier)
			continue
		}
		// The latency observation spans the whole invocation — the
		// end-to-end time an inline run would have stalled the guest for.
		start := time.Now()
		refs0, miss0 := p.an.SimulatedRefs, p.an.totalMiss
		p.an.BeginInvocation(inv.cycles)
		for i, prof := range inv.profs {
			p.an.AnalyzeProfile(prof, inv.alphas[i])
			for _, c := range p.consumers {
				c.Consume(prof)
			}
			select {
			case p.recycle <- prof:
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

// submit hands one invocation to the pipeline. profs must already be in
// the fixed merge order, with alphas[i] the threshold for profs[i];
// ownership of both slices and of every profile transfers to the
// pipeline. The call blocks while seqDepth invocations are queued — the
// backpressure that keeps the guest from racing ahead of analysis. It
// returns the sequencer backlog it recorded in the SeqBacklog gauge, for
// the caller's pipeline.submit event.
func (p *analyzerPool) submit(cycles, cost uint64, profs []*AddressProfile, alphas []float64) int {
	p.seqQ <- invocation{cycles: cycles, cost: cost, profs: profs, alphas: alphas}
	p.met.Submits.Inc()
	// The gauge's high-water mark is what the self-overhead report cares
	// about: sustained backlog at submit time means the guest is
	// outrunning analysis.
	backlog := len(p.seqQ)
	p.met.SeqBacklog.Set(int64(backlog))
	return backlog
}

// drain blocks until every invocation submitted so far has been fully
// analyzed. The pipeline stays usable afterwards; analyzer state is safe
// to read until the next submit.
func (p *analyzerPool) drain() {
	b := make(chan struct{})
	p.seqQ <- invocation{barrier: b}
	<-b
}

// close drains the pipeline and stops its sequencer. The pool must not
// be used afterwards.
func (p *analyzerPool) close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.seqQ)
	p.seqWG.Wait()
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
