package umi

import "sync"

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
// runs each invocation through the same body the inline path runs
// (Analyzer.invoke), in exactly the submission order. The submitted
// buffers are owned by the pipeline until analyzed; a System hands them
// back for recycling through the invocation's settle step. The bounded
// sequencer queue gives backpressure: a guest far ahead of the sequencer
// blocks on submit rather than queueing unbounded work.
//
// Memory visibility follows the hand-offs: the guest's writes to a profile
// happen before its invocation's channel send; the sequencer's writes to
// analyzer state happen before a barrier or close acknowledgement is
// observed by the guest.

// Pipeline queue depths: seqDepth bounds how many whole invocations the
// guest may run ahead of the sequencer; recycleDepth bounds a System's
// idle-buffer queue.
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
	seqQ      chan invocation
	seqWG     sync.WaitGroup
}

// newAnalyzerPool starts the pipeline's sequencer. The analyzer must be
// metered.
func newAnalyzerPool(an *Analyzer, consumers []ProfileConsumer) *analyzerPool {
	p := &analyzerPool{an: an, consumers: consumers, seqQ: make(chan invocation, seqDepth)}
	p.seqWG.Add(1)
	go p.sequencer()
	return p
}

// sequencer is the single goroutine that owns the analyzer's logical
// cache. It runs invocations in submission order — the fixed merge order
// that makes the pipeline produce the inline path's reports.
func (p *analyzerPool) sequencer() {
	defer p.seqWG.Done()
	for inv := range p.seqQ {
		if inv.barrier != nil {
			close(inv.barrier)
			continue
		}
		p.an.met.SeqBusyNs.Add(p.an.invoke(inv, p.consumers))
	}
}

// submit hands one invocation to the pipeline; ownership of its slices
// and of every profile transfers to the pipeline. The call blocks while
// seqDepth invocations are queued — the backpressure that keeps the guest
// from racing ahead of analysis. It returns the sequencer backlog it
// recorded in the SeqBacklog gauge, for the caller's pipeline.submit
// event.
func (p *analyzerPool) submit(inv invocation) int {
	p.seqQ <- inv
	p.an.met.Submits.Inc()
	// The gauge's high-water mark is what the self-overhead report cares
	// about: sustained backlog at submit time means the guest is
	// outrunning analysis.
	backlog := len(p.seqQ)
	p.an.met.SeqBacklog.Set(int64(backlog))
	return backlog
}

// drain blocks until every invocation submitted so far has been fully
// analyzed. The pipeline stays usable afterwards; analyzer state is safe
// to read until the next submit. A nil pool (inline analysis) has nothing
// to drain.
func (p *analyzerPool) drain() {
	if p == nil {
		return
	}
	b := make(chan struct{})
	p.seqQ <- invocation{barrier: b}
	<-b
}

// close drains the pipeline and stops its sequencer; a nil pool is a
// no-op. The pool must not be used afterwards.
func (p *analyzerPool) close() {
	if p == nil {
		return
	}
	close(p.seqQ)
	p.seqWG.Wait()
}
