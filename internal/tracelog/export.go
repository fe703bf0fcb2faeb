package tracelog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file holds the log's two deterministic consumers: the Chrome
// trace-event JSON exporter (loadable in Perfetto and chrome://tracing)
// and the plain-text timeline renderer (golden-testable). Both order
// events by modelled content alone — (cycles, type, pc, args) — so the
// output is byte-identical run to run regardless of how producer appends
// interleaved, and both exclude the non-deterministic Seq and WallNs
// fields by construction.

// Sorted returns a copy of events in the canonical deterministic order:
// ascending cycle stamp, with lifecycle position (Type), trace PC, and
// argument values breaking ties. Events identical under this key are
// interchangeable, so the order is total for rendering purposes.
func Sorted(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Cycles != b.Cycles:
			return a.Cycles < b.Cycles
		case a.Type != b.Type:
			return a.Type < b.Type
		case a.TracePC != b.TracePC:
			return a.TracePC < b.TracePC
		case a.Arg1 != b.Arg1:
			return a.Arg1 < b.Arg1
		case a.Arg2 != b.Arg2:
			return a.Arg2 < b.Arg2
		case a.Arg3 != b.Arg3:
			return a.Arg3 < b.Arg3
		default:
			return a.Dur < b.Dur
		}
	})
	return out
}

// Timeline renders events as the deterministic text timeline: one line
// per event, canonical order, modelled fields only. drops is the ring's
// overflow count, reported in the header so a truncated timeline says so.
func Timeline(events []Event, drops uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d events", len(events))
	if drops > 0 {
		fmt.Fprintf(&sb, " (%d older events dropped)", drops)
	}
	sb.WriteString("\n")
	for _, e := range Sorted(events) {
		fmt.Fprintf(&sb, "[%12d] %-21s", e.Cycles, e.Type.String())
		if e.TracePC != 0 {
			fmt.Fprintf(&sb, " pc=%#08x", e.TracePC)
		}
		if d := e.detail(); d != "" {
			sb.WriteString(" " + d)
		}
		if e.Dur > 0 {
			fmt.Fprintf(&sb, " dur=%d", e.Dur)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Chrome trace-event track layout: one process, one thread ("track") per
// runtime component, plus tid 0 for counter series.
const (
	chromePid   = 1
	tidCounters = 0
	tidRIO      = 1
	tidSelector = 2
	tidAnalyzer = 3
)

func chromeTid(t Type) int {
	switch t {
	case EvTracePromoted, EvBlockCacheFlush:
		return tidRIO
	case EvTraceInstrumented, EvTraceDeinstrumented, EvProfileFill, EvAdaptiveStep:
		return tidSelector
	default:
		return tidAnalyzer
	}
}

// chromeEvent is one trace-event object. Field order is fixed by the
// struct, and args maps marshal with sorted keys, so the serialized form
// is deterministic. Every event carries the keys Perfetto's trace-event
// importer requires: name, ph, ts, pid, tid.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func metaEvent(name string, tid int, value string) chromeEvent {
	return chromeEvent{Name: name, Ph: "M", Pid: chromePid, Tid: tid,
		Args: map[string]any{"name": value}}
}

// chromeArgs materializes an event's named arguments.
func chromeArgs(e Event) map[string]any {
	args := make(map[string]any)
	if e.TracePC != 0 {
		args["pc"] = fmt.Sprintf("%#x", e.TracePC)
	}
	names := e.Type.argNames()
	vals := [3]uint64{e.Arg1, e.Arg2, e.Arg3}
	for i, n := range names {
		if n == "" {
			continue
		}
		if n == "alpha" {
			args[n] = math.Float64frombits(vals[i])
		} else {
			args[n] = vals[i]
		}
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChromeTrace serializes events as Chrome trace-event JSON, one
// event per line. Timestamps are the modelled guest-cycle stamps rendered
// in the format's microsecond field, so one timeline microsecond equals
// one modelled cycle; analyzer invocations appear as complete ("X") spans
// with their modelled cost as the duration, lifecycle events as
// thread-scoped instants, and a derived counter track plots delinquent-
// set size over time. Output is byte-deterministic for deterministic event
// content.
func WriteChromeTrace(w io.Writer, events []Event) error {
	evs := Sorted(events)
	out := make([]chromeEvent, 0, len(evs)+8)
	out = append(out,
		metaEvent("process_name", tidCounters, "umi runtime"),
		metaEvent("thread_name", tidRIO, "rio code cache"),
		metaEvent("thread_name", tidSelector, "region selector / instrumentor"),
		metaEvent("thread_name", tidAnalyzer, "profile analyzer"),
	)
	for _, e := range evs {
		switch e.Type {
		case EvAnalyzerEnd:
			out = append(out, chromeEvent{
				Name: "analyzer.invocation", Ph: "X", Ts: e.Cycles, Dur: e.Dur,
				Pid: chromePid, Tid: tidAnalyzer, Args: chromeArgs(e),
			})
			// Derived counter: delinquent-set size after this invocation.
			out = append(out, chromeEvent{
				Name: "delinquent set", Ph: "C", Ts: e.Cycles + e.Dur,
				Pid: chromePid, Tid: tidCounters,
				Args: map[string]any{"size": e.Arg3},
			})
		default:
			out = append(out, chromeEvent{
				Name: e.Type.String(), Ph: "i", S: "t", Ts: e.Cycles,
				Pid: chromePid, Tid: chromeTid(e.Type), Args: chromeArgs(e),
			})
		}
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ce := range out {
		data, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(data, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

// MarshalJSON renders an event for the live /events endpoint: type by
// name, named arguments, and the wall-clock annotation in its clearly
// separated field.
func (e Event) MarshalJSON() ([]byte, error) {
	obj := struct {
		Seq    uint64         `json:"seq"`
		Cycles uint64         `json:"cycles"`
		Type   string         `json:"type"`
		PC     string         `json:"pc,omitempty"`
		Dur    uint64         `json:"dur_cycles,omitempty"`
		Args   map[string]any `json:"args,omitempty"`
		WallNs int64          `json:"wall_ns"`
	}{
		Seq: e.Seq, Cycles: e.Cycles, Type: e.Type.String(),
		Dur: e.Dur, WallNs: e.WallNs,
	}
	if e.TracePC != 0 {
		obj.PC = fmt.Sprintf("%#x", e.TracePC)
	}
	args := chromeArgs(e)
	delete(args, "pc")
	if len(args) > 0 {
		obj.Args = args
	}
	return json.Marshal(obj)
}
