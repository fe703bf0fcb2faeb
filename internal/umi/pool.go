package umi

// This file is a Replay's sequencer. Where analysis runs follows the
// producer. A live System analyzes inline on the guest goroutine, as the
// paper does: the guest stalls while its profiles are mini-simulated. A
// Replay has no guest to stall, so each Consume decodes on the caller's
// goroutine and hands every recorded invocation to a sequencer goroutine
// that lives for that one Consume.
//
// The analyzer's logical cache is shared across profiles and across
// invocations (§5), so the mini-simulation is order-sensitive and cannot
// be sharded. The sequencer therefore runs each invocation through the
// body the System runs (Analyzer.invoke), in exactly the submission order.
// The bounded queue gives backpressure: a decoder far ahead of the
// sequencer blocks on submit rather than queueing unbounded work.
//
// Once an invocation is analyzed, the sequencer hands each profile's cells
// back over a channel that, like the sequencer, lives for one Consume; the
// decoder fills them again for a later profile record, so a replay's
// steady state decodes without allocating cells.
//
// Memory visibility follows the hand-offs: the decoder's writes to a
// profile happen before its invocation's channel send; the sequencer's
// last read of a profile's cells happens before their send back; the
// sequencer's writes to analyzer state happen before stop returns.

// seqDepth bounds how many whole invocations the decoder may run ahead of
// the sequencer.
const seqDepth = 4

// freeDepth bounds the cells waiting for the decoder, which takes them
// before every record it decodes: one slot per queued invocation covers
// what the sequencer frees meanwhile, and a fuller channel lets the rest
// go to the collector (2 to 64 slots read the same B/op in
// BenchmarkReplayStream).
const freeDepth = seqDepth

// sequencer is one Consume's analysis goroutine. It owns the analyzer
// from start to stop: nothing else may touch analyzer state in between.
type sequencer struct {
	an *Analyzer
	q  chan invocation
	// free carries analyzed profiles' cells back to the decoder.
	free chan []uint64
	done chan struct{}
}

// startSequencer starts the goroutine. The analyzer must be metered.
func startSequencer(an *Analyzer) *sequencer {
	s := &sequencer{an: an, q: make(chan invocation, seqDepth),
		free: make(chan []uint64, freeDepth), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for inv := range s.q {
			s.an.met.SeqBusyNs.Add(s.an.invoke(inv, nil))
			for _, p := range inv.profs {
				select {
				case s.free <- p.cells:
				default: // the decoder has plenty: let these go
				}
			}
		}
	}()
	return s
}

// submit hands one invocation to the sequencer; ownership of its slices
// and of every profile transfers with it. The call blocks while seqDepth
// invocations are queued.
func (s *sequencer) submit(inv invocation) {
	s.q <- inv
	s.an.met.Submits.Inc()
	// The gauge's high-water mark is what the self-overhead report cares
	// about: sustained backlog at submit time means decode is outrunning
	// analysis.
	s.an.met.SeqBacklog.Set(int64(len(s.q)))
}

// stop analyzes everything submitted and joins the goroutine. Analyzer
// state is the caller's again once it returns.
func (s *sequencer) stop() {
	close(s.q)
	<-s.done
}
