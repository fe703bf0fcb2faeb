// Session configuration and execution for the umid daemon: the JSON
// surface a client POSTs to create a profiling session, its validation,
// and the runner that executes one session's guest under the full UMI
// stack.
package introspect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"umi/internal/harness"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/internal/workloads"
)

// Limits on client-supplied session parameters. They bound what one
// session can cost the daemon, not what the library supports.
const (
	// MaxTraceAddrs caps a submitted address-trace stream. Each distinct
	// address can materialize a guest memory page, so the cap bounds
	// per-session guest memory.
	MaxTraceAddrs = 8192
	// MaxSessionWorkers caps the workers value a session may request. Any
	// value from 2 up selects the same one-sequencer pipeline; the cap
	// only keeps the accepted range what it has always been.
	MaxSessionWorkers = 64
	// maxTraceReps caps the submitted-trace replay count.
	maxTraceReps = 4096
	// traceAddrMask keeps submitted addresses inside a 44-bit guest
	// address space (16 TiB), far above any workload but finite.
	traceAddrMask = (uint64(1) << 44) - 1
)

// SessionConfig is the JSON body of POST /sessions: what to run and how
// to profile it. Exactly one of Workload and Trace must be set.
type SessionConfig struct {
	// Workload names a registered benchmark (umiprof -list enumerates).
	Workload string `json:"workload,omitempty"`
	// Trace is a submitted address stream: the session's guest becomes a
	// synthetic program that loads each address in order, Reps times.
	// Addresses are masked to the guest address space; at most
	// MaxTraceAddrs entries.
	Trace []uint64 `json:"trace,omitempty"`
	// Reps is how many times a submitted trace stream is replayed
	// (default 64, so short streams still get hot enough to profile).
	Reps int `json:"reps,omitempty"`

	// Machine selects the hardware model: "p4" (default) or "k7".
	Machine string `json:"machine,omitempty"`
	// HWPrefetch enables the platform's hardware prefetchers (P4 only).
	HWPrefetch bool `json:"hw_prefetch,omitempty"`
	// Sampling toggles sample-based region selection (default true).
	Sampling *bool `json:"sampling,omitempty"`
	// Workers selects where the session's analyzer runs: 0 or 1 inline on
	// the session's run goroutine (or the ingest request's), 2 or more on
	// the session's own sequencer goroutine — every such value alike.
	// Reports are byte-identical at any setting.
	Workers int `json:"workers,omitempty"`
	// HistoryWindows bounds the session's profile-history ring (0 keeps
	// the library default, negative disables).
	HistoryWindows int `json:"history_windows,omitempty"`
	// MaxInstrs bounds the run in retired guest instructions (0 keeps the
	// harness default).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`

	// Ingest declares a replay session: it runs no guest and instead
	// accepts umi-profile streams (v1 or v2) via POST
	// /sessions/{id}/ingest and analyzes them. Mutually exclusive with every guest-execution knob —
	// the stream header carries the analyzer configuration — except
	// Workers, which picks inline or sequencer replay.
	Ingest bool `json:"ingest,omitempty"`
}

// ParseSessionConfig decodes and validates a POST /sessions body. Unknown
// fields are rejected — a misspelled knob must fail loudly, not silently
// profile with defaults.
func ParseSessionConfig(data []byte) (SessionConfig, error) {
	var cfg SessionConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return SessionConfig{}, fmt.Errorf("config: %w", err)
	}
	// Trailing garbage after the object is a malformed request too.
	if dec.More() {
		return SessionConfig{}, errors.New("config: trailing data after JSON object")
	}
	if err := cfg.Validate(); err != nil {
		return SessionConfig{}, err
	}
	return cfg, nil
}

// Validate checks a decoded config against the daemon's limits.
func (c *SessionConfig) Validate() error {
	if c.Ingest {
		// An ingest session's analyzer configuration arrives in the stream
		// header; every guest-execution knob here would be silently dead,
		// so their presence is an error.
		if c.Workload != "" || len(c.Trace) > 0 || c.Reps != 0 || c.Machine != "" ||
			c.HWPrefetch || c.Sampling != nil || c.MaxInstrs != 0 || c.HistoryWindows != 0 {
			return errors.New("config: ingest only admits the workers knob; analyzer configuration comes from the stream header")
		}
		if c.Workers < 0 || c.Workers > MaxSessionWorkers {
			return fmt.Errorf("config: workers %d outside [0, %d]", c.Workers, MaxSessionWorkers)
		}
		return nil
	}
	switch {
	case c.Workload == "" && len(c.Trace) == 0:
		return errors.New("config: one of workload or trace is required")
	case c.Workload != "" && len(c.Trace) > 0:
		return errors.New("config: workload and trace are mutually exclusive")
	}
	if c.Workload != "" {
		if _, ok := workloads.ByName(c.Workload); !ok {
			return fmt.Errorf("config: unknown workload %q", c.Workload)
		}
	}
	if len(c.Trace) > MaxTraceAddrs {
		return fmt.Errorf("config: trace has %d addresses, max %d", len(c.Trace), MaxTraceAddrs)
	}
	if c.Reps < 0 || c.Reps > maxTraceReps {
		return fmt.Errorf("config: reps %d outside [0, %d]", c.Reps, maxTraceReps)
	}
	if c.Reps != 0 && len(c.Trace) == 0 {
		return errors.New("config: reps requires a trace stream")
	}
	if c.Machine != "" && c.Machine != "p4" && c.Machine != "k7" {
		return fmt.Errorf("config: machine %q not in {p4, k7}", c.Machine)
	}
	if c.Workers < 0 || c.Workers > MaxSessionWorkers {
		return fmt.Errorf("config: workers %d outside [0, %d]", c.Workers, MaxSessionWorkers)
	}
	if c.HistoryWindows > 1<<20 {
		return fmt.Errorf("config: history_windows %d too large", c.HistoryWindows)
	}
	if c.MaxInstrs > harness.MaxInstrs {
		return fmt.Errorf("config: max_instrs %d above cap %d", c.MaxInstrs, harness.MaxInstrs)
	}
	return nil
}

// platform resolves the config's hardware model.
func (c *SessionConfig) platform() *harness.Platform {
	if c.Machine == "k7" {
		return harness.K7
	}
	return harness.P4
}

// umiConfig builds the session's UMI parameters: the harness's standard
// per-platform configuration with the client's overrides applied.
func (c *SessionConfig) umiConfig() umi.Config {
	cfg := harness.UMIParams(c.platform())
	if c.Sampling != nil {
		cfg.UseSampling = *c.Sampling
	}
	cfg.AnalyzerWorkers = c.Workers
	if c.HistoryWindows != 0 {
		cfg.HistoryWindows = c.HistoryWindows
	}
	return cfg
}

// guestProgram resolves the config's guest: a registered workload, or a
// synthetic program replaying the submitted address stream.
func (c *SessionConfig) guestProgram() (*program.Program, error) {
	if c.Workload != "" {
		w, ok := workloads.ByName(c.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", c.Workload)
		}
		return w.Program(), nil
	}
	return traceStreamProgram(c.Trace, c.Reps)
}

// maxInstrs resolves the run bound.
func (c *SessionConfig) maxInstrs() uint64 {
	if c.MaxInstrs > 0 {
		return c.MaxInstrs
	}
	return harness.MaxInstrs
}

// traceStreamProgram builds the guest for a submitted address stream: a
// pointer table holding the masked addresses and a hot loop that loads the
// pointer, dereferences it, and advances — DINAMITE's cheap-capture /
// heavy-analysis split, with the capture done client-side and the stream
// analyzed here. The loop repeats reps times so short streams cross the
// region selector's frequency threshold.
func traceStreamProgram(addrs []uint64, reps int) (*program.Program, error) {
	if len(addrs) == 0 {
		return nil, errors.New("empty trace stream")
	}
	if reps <= 0 {
		reps = 64
	}
	masked := make([]uint64, len(addrs))
	for i, a := range addrs {
		masked[i] = a & traceAddrMask
	}
	const tableBase = program.HeapBase
	b := program.NewBuilder("trace-stream")
	b.AddWords(tableBase, masked)
	e := b.Block("entry")
	e.MovI(isa.R2, int64(tableBase)) // table base
	e.MovI(isa.R7, 0)                // checksum
	e.MovI(isa.R8, 0)                // rep counter
	e.MovI(isa.R9, int64(reps))      // rep limit
	rep := b.Block("rep")
	rep.MovI(isa.R0, 0)                 // stream index
	rep.MovI(isa.R6, int64(len(addrs))) // stream length
	l := b.Block("loop")
	l.Load(isa.R1, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0)) // ptr = table[i]
	l.Load(isa.R3, 8, isa.Mem(isa.R1, 0))               // touch the submitted address
	l.Add(isa.R7, isa.R7, isa.R3)
	l.AddI(isa.R0, isa.R0, 1)
	l.Br(isa.CondLT, isa.R0, isa.R6, "loop")
	tail := b.Block("tail")
	tail.AddI(isa.R8, isa.R8, 1)
	tail.Br(isa.CondLT, isa.R8, isa.R9, "rep")
	b.Block("done").Halt()
	return b.Assemble()
}

// RunResult is one completed session run: the full UMI report, the
// profile-history windows, and the ground-truth scalars from the machine
// model. Every field is a pure function of the config and the guest, so
// marshaling one yields byte-identical JSON however the run was scheduled
// — that is the daemon's load-bearing equivalence contract, and what the
// session-equivalence tests compare.
type RunResult struct {
	Report      *umi.Report     `json:"report"`
	History     umi.HistoryView `json:"history"`
	HWMissRatio float64         `json:"hw_miss_ratio"`
	Cycles      uint64          `json:"cycles"`
	Instrs      uint64          `json:"instrs"`
}

// guestName is the session's display name: the workload, or "trace[n]"
// for a submitted stream.
func (c *SessionConfig) guestName() string {
	if c.Workload != "" {
		return c.Workload
	}
	return fmt.Sprintf("trace[%d]", len(c.Trace))
}

// machineName resolves the config's platform label.
func (c *SessionConfig) machineName() string {
	if c.Machine == "" {
		return "p4"
	}
	return c.Machine
}

// runSession executes one session's guest to completion. publish, when
// non-nil, receives the attached System before the guest starts so live
// scrapes can observe the run in flight. enc, when non-nil, records the
// run's umi-profile/v1 stream; emission is observational, so the result
// is byte-identical with or without it.
func runSession(cfg *SessionConfig, publish func(*umi.System), enc *wire.Encoder) (*RunResult, error) {
	prog, err := cfg.guestProgram()
	if err != nil {
		return nil, err
	}
	plat := cfg.platform()
	h := plat.Hierarchy(cfg.HWPrefetch)
	m := vm.New(prog, h)
	rt := rio.NewRuntime(m)
	ucfg := cfg.umiConfig()
	sys := umi.Attach(rt, ucfg)
	if enc != nil {
		enc.Header(umi.WireHeader(&ucfg, cfg.guestName(), cfg.machineName()))
		sys.EnableWireEmit(enc)
	}
	if publish != nil {
		publish(sys)
	}
	// An exhausted instruction budget is a bounded run, not a failure:
	// max_instrs is exactly the knob clients use to truncate long guests,
	// and the profile over what did run is the deliverable.
	if err := rt.Run(cfg.maxInstrs()); err != nil && !errors.Is(err, rio.ErrNotHalted) {
		return nil, fmt.Errorf("run: %w", err)
	}
	sys.Finish()
	if enc != nil {
		sys.EmitWireTail(enc, h)
		if err := enc.Flush(); err != nil {
			return nil, fmt.Errorf("emit: %w", err)
		}
	}
	return &RunResult{
		Report:      sys.Report(),
		History:     sys.History(),
		HWMissRatio: h.L2Stats.MissRatio(),
		Cycles:      rt.TotalCycles(),
		Instrs:      m.Instrs,
	}, nil
}

// RunStandalone executes a session config outside any daemon, with no
// co-tenants. It is the reference the equivalence tests hold daemon
// sessions to.
func RunStandalone(cfg SessionConfig) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ingest {
		return nil, errors.New("config: ingest sessions replay streams; nothing to run")
	}
	return runSession(&cfg, nil, nil)
}

// EmitStandalone is RunStandalone with stream capture: the run's
// umi-profile/v1 telemetry is written to out while the guest executes.
// The returned result is byte-identical to RunStandalone's — emission
// never perturbs the run — and the stream, replayed, reproduces it.
func EmitStandalone(cfg SessionConfig, out io.Writer) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ingest {
		return nil, errors.New("config: ingest sessions replay streams; nothing to emit")
	}
	return runSession(&cfg, nil, wire.NewEncoder(out))
}
