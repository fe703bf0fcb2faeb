package harness

import (
	"bytes"
	"fmt"

	"umi/internal/cache"
	"umi/internal/rio"
	"umi/internal/stats"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/internal/workloads"
)

// Capture-once/analyze-many over the wire format: one recorded
// umi-profile/v1 stream replayed against several simulated cache
// geometries. Unlike the §5 what-if consumer (which rides along a live
// run), this sweep needs no guest at all — the profiled address stream is
// already on disk, so each geometry is one cheap replay. The same
// recording a fleet ships to umid doubles as the input to offline design
//-space exploration.

// ReplayGeometryPoint is one geometry's replayed outcome.
type ReplayGeometryPoint struct {
	Config     cache.Config
	MissRatio  float64
	Delinquent int
}

// ReplayGeometryResult is one stream's sweep.
type ReplayGeometryResult struct {
	Workload string
	Machine  string
	Captured string // geometry the stream was recorded under
	Points   []ReplayGeometryPoint
	Spread   float64 // max-min miss ratio across geometries
}

// EmitWorkloadStream records one workload's umi-profile/v1 stream under
// the standard P4 parameters — the capture half for callers (tests, the
// umibench replay-geometry experiment) that have no recording on hand.
func EmitWorkloadStream(name string) ([]byte, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", name)
	}
	cfg := UMIParams(P4)
	h := P4.Hierarchy(false)
	m := vm.New(w.Program(), h)
	rt := rio.NewRuntime(m)
	s := umi.Attach(rt, cfg)
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.Header(umi.WireHeader(&cfg, w.Name, P4.Name))
	s.EnableWireEmit(enc)
	if err := rt.Run(MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s umi: %w", w.Name, err)
	}
	s.Finish()
	s.EmitWireTail(enc, h)
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("%s emit: %w", w.Name, err)
	}
	return buf.Bytes(), nil
}

// ReplayGeometry sweeps one recorded stream across cache geometries: a
// fresh inline replay per configuration, each re-simulating the identical
// profiled address stream.
func ReplayGeometry(stream []byte) (*ReplayGeometryResult, error) {
	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		return nil, fmt.Errorf("harness: stream header: %w", err)
	}
	base, err := umi.ConfigFromWireHeader(h)
	if err != nil {
		return nil, fmt.Errorf("harness: stream header: %w", err)
	}
	res := &ReplayGeometryResult{
		Workload: h.Workload,
		Machine:  h.Machine,
		Captured: base.MiniSimCache.Name,
	}
	lo, hi := 1.0, 0.0
	sweep := geometrySweep(base.MiniSimCache)
	sweep[2].Name = base.MiniSimCache.Name // the 1x point is the captured geometry itself
	for _, cc := range sweep {
		if err := cc.Validate(); err != nil {
			return nil, fmt.Errorf("harness: swept geometry %s: %w", cc.Name, err)
		}
		d := wire.NewDecoder(bytes.NewReader(stream))
		hh, err := d.Header()
		if err != nil {
			return nil, fmt.Errorf("harness: stream header: %w", err)
		}
		cfg, err := umi.ConfigFromWireHeader(hh)
		if err != nil {
			return nil, fmt.Errorf("harness: stream header: %w", err)
		}
		cfg.MiniSimCache = cc
		rp := umi.NewReplay(cfg)
		if _, err := rp.Consume(d); err != nil {
			return nil, fmt.Errorf("harness: replay %s: %w", cc.Name, err)
		}
		rep := rp.Report()
		res.Points = append(res.Points, ReplayGeometryPoint{
			Config: cc, MissRatio: rep.SimMissRatio, Delinquent: len(rep.Delinquent),
		})
		if rep.SimMissRatio < lo {
			lo = rep.SimMissRatio
		}
		if rep.SimMissRatio > hi {
			hi = rep.SimMissRatio
		}
	}
	res.Spread = hi - lo
	return res, nil
}

// ReplayGeometryWorkload is the self-contained form: record the named
// workload's stream in memory, then sweep it. One capture, five replays.
func ReplayGeometryWorkload(name string) (*ReplayGeometryResult, error) {
	stream, err := EmitWorkloadStream(name)
	if err != nil {
		return nil, err
	}
	return ReplayGeometry(stream)
}

// RenderReplayGeometry renders the sweep.
func RenderReplayGeometry(r *ReplayGeometryResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Replay geometry sweep: %s on %s — one recorded stream, many caches",
			r.Workload, r.Machine),
		"Cache", "Size", "Sim miss ratio", "|P|")
	for _, p := range r.Points {
		name := p.Config.Name
		if name == r.Captured {
			name += " (captured)"
		}
		t.AddRow(name, fmt.Sprintf("%dKB", p.Config.Size/1024),
			fmt.Sprintf("%.4f", p.MissRatio), fmt.Sprint(p.Delinquent))
	}
	return t.String() + fmt.Sprintf("spread across geometries: %.4f\n", r.Spread)
}
