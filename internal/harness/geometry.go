package harness

import (
	"fmt"

	"umi/internal/cache"
	"umi/internal/stats"
	"umi/internal/umi"
	"umi/internal/workloads"
)

// §5 claim: "The mini-simulation results were observed to be far more
// dependent on the length of the address profiles, than on the actual
// configuration of the simulated cache." This experiment quantifies both
// sensitivities: one UMI run per benchmark feeds the identical profiles to
// several cache geometries at once (the what-if consumer), while separate
// runs sweep the address-profile length.

// GeometryPoint is one simulated-geometry outcome.
type GeometryPoint struct {
	Config    cache.Config
	MissRatio float64
}

// LengthPoint is one profile-length outcome.
type LengthPoint struct {
	Rows      int
	MissRatio float64
}

// GeometryResult is one benchmark's two sweeps.
type GeometryResult struct {
	Benchmark  string
	Geometries []GeometryPoint
	Lengths    []LengthPoint
	GeomSpread float64 // max-min across geometries
	LenSpread  float64 // max-min across lengths
}

// geometrySweep is the set of what-if cache configurations: base scaled
// from a quarter to four times its size, the §5 what-if ladder.
func geometrySweep(base cache.Config) []cache.Config {
	out := make([]cache.Config, 0, 5)
	for _, scale := range []int{4, 2, 1} {
		c := base
		c.Size /= scale
		c.Name = fmt.Sprintf("L2/%d", scale)
		out = append(out, c)
	}
	for _, scale := range []int{2, 4} {
		c := base
		c.Size *= scale
		c.Name = fmt.Sprintf("L2x%d", scale)
		out = append(out, c)
	}
	return out
}

// SensitivityGeometry runs the §5 sensitivity comparison on the given
// benchmarks (default: mcf and swim — one pointer chaser, one streamer).
func SensitivityGeometry(benchNames []string) ([]*GeometryResult, error) {
	if benchNames == nil {
		benchNames = []string{"181.mcf", "171.swim"}
	}
	var out []*GeometryResult
	for _, name := range benchNames {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		res := &GeometryResult{Benchmark: name}

		// One run, many geometries over the identical profiles.
		cfg := UMIParams(P4)
		wi := umi.NewWhatIf(cfg.WarmupRows, geometrySweep(cache.P4L2)...)
		if _, err := RunUMI(w, P4, cfg, false, false, wi); err != nil {
			return nil, err
		}
		lo, hi := 1.0, 0.0
		for _, r := range wi.Results() {
			res.Geometries = append(res.Geometries, GeometryPoint{Config: r.Config, MissRatio: r.MissRatio})
			if r.MissRatio < lo {
				lo = r.MissRatio
			}
			if r.MissRatio > hi {
				hi = r.MissRatio
			}
		}
		res.GeomSpread = hi - lo

		// Profile-length sweep (separate runs; the recorded history
		// itself changes).
		lo, hi = 1.0, 0.0
		for rows := 16; rows <= 1024; rows *= 4 {
			c := UMIParams(P4)
			c.AddressProfileRows = rows
			if c.TraceProfileLen < rows {
				c.TraceProfileLen = rows * 4
			}
			run, err := RunUMI(w, P4, c, false, false)
			if err != nil {
				return nil, err
			}
			r := run.Report.SimMissRatio
			res.Lengths = append(res.Lengths, LengthPoint{Rows: rows, MissRatio: r})
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		res.LenSpread = hi - lo
		out = append(out, res)
	}
	return out, nil
}

// RenderGeometry renders the sensitivity comparison.
func RenderGeometry(results []*GeometryResult) string {
	if len(results) == 0 {
		return "Geometry sensitivity: no benchmarks selected\n"
	}
	var s string
	for _, r := range results {
		t := stats.NewTable(
			fmt.Sprintf("Geometry sensitivity (§5): %s — identical profiles, varying cache", r.Benchmark),
			"Cache", "Size", "Sim miss ratio")
		for _, g := range r.Geometries {
			t.AddRow(g.Config.Name, fmt.Sprintf("%dKB", g.Config.Size/1024),
				fmt.Sprintf("%.4f", g.MissRatio))
		}
		s += t.String()
		t2 := stats.NewTable(
			fmt.Sprintf("Profile-length sensitivity: %s — fixed cache, varying rows", r.Benchmark),
			"Rows", "Sim miss ratio")
		for _, l := range r.Lengths {
			t2.AddRow(fmt.Sprint(l.Rows), fmt.Sprintf("%.4f", l.MissRatio))
		}
		s += t2.String()
		s += fmt.Sprintf("spread: geometry %.4f vs profile length %.4f\n\n",
			r.GeomSpread, r.LenSpread)
	}
	return s
}
