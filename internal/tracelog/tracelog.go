// Package tracelog is the runtime's temporal self-observability substrate:
// a dependency-free, ring-buffered structured event log recording *when*
// lifecycle events happen, where internal/metrics records only how often.
// UMI's behaviour is inherently bursty — regions heat up, profiles fill,
// the analyzer fires, delinquent sets evolve as the adaptive threshold
// walks down — and none of that temporal structure survives into an
// end-of-run aggregate. The log captures it as typed events stamped with
// the modelled guest-cycle clock, so the recorded timeline is a modelled
// quantity: deterministic, golden-testable, and independent of host speed.
//
// Concurrency model, mirroring internal/metrics: producers append
// lock-free — one atomic slot reservation plus one atomic pointer store —
// and readers snapshot from any goroutine at any time, including mid-run
// over the introspection HTTP endpoint. On overflow the ring drops the
// oldest events and counts the drops; it never blocks and never grows.
//
// Determinism contract: an attached log never feeds back into modelled
// state, so every report is byte-identical with tracing on or off. Event
// *content* is deterministic; Seq (append order) and WallNs (host wall
// clock) are not, and every deterministic renderer in this package
// excludes them — the same split as the metrics layer's String vs
// LiveString.
package tracelog

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Type enumerates the lifecycle events the runtime records. Values are
// ordered by position in a trace's lifecycle; deterministic renderers use
// the ordering to break ties between events sharing a cycle stamp.
type Type uint8

const (
	// EvTracePromoted: the rio trace builder installed a new trace
	// (Arg1 = instructions).
	EvTracePromoted Type = iota
	// EvBlockCacheFlush: the basic-block cache filled and was flushed
	// (Arg1 = instructions evicted).
	EvBlockCacheFlush
	// EvTraceInstrumented: the instrumentor installed the profiling clone
	// (Arg1 = profiled operations).
	EvTraceInstrumented
	// EvProfileFill: an address profile triggered analysis (Arg1 = rows;
	// Arg2 = 1 when the global trace-profile limit fired, 0 for a
	// per-trace fill).
	EvProfileFill
	// EvAnalyzerBegin: an analyzer invocation started (Arg1 = live
	// profiles).
	EvAnalyzerBegin
	// EvCacheFlush: the analyzer flushed its logical cache (§5 gap rule).
	EvCacheFlush
	// EvTraceDeinstrumented: a trace swapped back to its clean clone.
	EvTraceDeinstrumented
	// EvAdaptiveStep: the adaptive delinquency threshold stepped
	// (Arg1 = math.Float64bits of the new alpha).
	EvAdaptiveStep
	// EvAnalyzerEnd: an analyzer invocation completed (Arg1 = refs
	// simulated, Arg2 = misses, Arg3 = |P| after the invocation;
	// Dur = modelled invocation cost in cycles).
	EvAnalyzerEnd

	numTypes
)

var typeNames = [numTypes]string{
	EvTracePromoted:       "trace.promoted",
	EvBlockCacheFlush:     "rio.block_cache_flush",
	EvTraceInstrumented:   "trace.instrumented",
	EvProfileFill:         "profile.fill",
	EvAnalyzerBegin:       "analyzer.begin",
	EvCacheFlush:          "analyzer.cache_flush",
	EvTraceDeinstrumented: "trace.deinstrumented",
	EvAdaptiveStep:        "adaptive.step",
	EvAnalyzerEnd:         "analyzer.end",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("tracelog.Type(%d)", uint8(t))
}

// argNames maps Arg1..Arg3 to their per-type meaning ("" = unused), the
// single source of truth for every renderer.
func (t Type) argNames() [3]string {
	switch t {
	case EvTracePromoted, EvBlockCacheFlush:
		return [3]string{"instrs"}
	case EvTraceInstrumented:
		return [3]string{"ops"}
	case EvProfileFill:
		return [3]string{"rows", "global"}
	case EvAnalyzerBegin:
		return [3]string{"profiles"}
	case EvAdaptiveStep:
		return [3]string{"alpha"}
	case EvAnalyzerEnd:
		return [3]string{"refs", "misses", "delinquent"}
	default:
		return [3]string{}
	}
}

// Event is one recorded lifecycle event. Cycles, Type, TracePC, Dur and
// the Args are modelled quantities (deterministic); Seq and WallNs are
// host-side annotations (append order and wall-clock nanoseconds since
// the log was created) that deterministic renderers exclude.
type Event struct {
	Seq     uint64
	Cycles  uint64
	Type    Type
	TracePC uint64
	// Dur is the modelled span length in cycles (analyzer invocations).
	Dur  uint64
	Arg1 uint64
	Arg2 uint64
	Arg3 uint64
	// WallNs is the non-deterministic wall-clock annotation, kept in a
	// clearly separated field (the metrics layer's String/LiveString
	// split, applied per event).
	WallNs int64
}

// Alpha decodes Arg1 as a float for EvAdaptiveStep events.
func (e Event) Alpha() float64 { return math.Float64frombits(e.Arg1) }

// detail renders the event's type-specific arguments as "k=v" pairs in
// declaration order — deterministic, shared by the text timeline and the
// HTTP /events view.
func (e Event) detail() string {
	names := e.Type.argNames()
	args := [3]uint64{e.Arg1, e.Arg2, e.Arg3}
	out := ""
	for i, n := range names {
		if n == "" {
			continue
		}
		if out != "" {
			out += " "
		}
		if n == "alpha" {
			out += fmt.Sprintf("alpha=%.2f", math.Float64frombits(args[i]))
		} else {
			out += fmt.Sprintf("%s=%d", n, args[i])
		}
	}
	return out
}

// DefaultCapacity is the ring size used when a caller passes 0: large
// enough that the harness workloads never drop, small enough to be left
// on (a few MB of pointers at worst).
const DefaultCapacity = 1 << 16

// Log is the ring buffer. One Log serves all producers of a run; append
// is lock-free and snapshot-safe from any goroutine. All methods are
// nil-receiver safe so call sites can emit unconditionally — a nil Log is
// the disabled state and costs one branch.
type Log struct {
	slots []atomic.Pointer[Event]
	// head counts events ever appended; it doubles as the Seq allocator.
	head  atomic.Uint64
	start time.Time
}

// NewLog returns an empty ring holding up to capacity events (0 selects
// DefaultCapacity).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{slots: make([]atomic.Pointer[Event], capacity), start: time.Now()}
}

// Emit appends one event, stamping Seq and WallNs. On overflow the oldest
// event is overwritten (dropped) and counted; Emit never blocks. Safe for
// concurrent producers: each reservation gets a distinct slot, and the
// slot write is a single atomic pointer store.
func (l *Log) Emit(ev Event) {
	if l == nil {
		return
	}
	n := l.head.Add(1)
	ev.Seq = n
	ev.WallNs = int64(time.Since(l.start))
	e := ev
	l.slots[(n-1)%uint64(len(l.slots))].Store(&e)
}

// Cap returns the ring capacity.
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Total returns the number of events ever appended, including dropped
// ones.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.head.Load()
}

// Drops returns how many events were overwritten before being read:
// oldest-first, exactly Total minus capacity once the ring has wrapped.
func (l *Log) Drops() uint64 {
	if l == nil {
		return 0
	}
	if t := l.head.Load(); t > uint64(len(l.slots)) {
		return t - uint64(len(l.slots))
	}
	return 0
}

// Events snapshots the ring's current contents, oldest first (ascending
// Seq). Concurrent with producers the snapshot is best-effort — a slot
// being overwritten mid-read yields either its old or new event, never a
// torn one — and at quiescence (after Finish) it is exact.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, len(l.slots))
	for i := range l.slots {
		if e := l.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Recent returns the newest n events, oldest of those first (n <= 0 or
// n > len returns everything buffered).
func (l *Log) Recent(n int) []Event {
	evs := l.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
