package harness

import (
	"fmt"

	"umi/internal/cache"
	"umi/internal/stats"
	"umi/internal/umi"
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
	ws, err := selectWorkloads(benchNames, "181.mcf", "171.swim")
	if err != nil {
		return nil, err
	}
	var out []*GeometryResult
	for _, w := range ws {
		res := &GeometryResult{Benchmark: w.Name}

		// One run, many geometries over the identical profiles.
		cfg := UMIParams(P4)
		wi := umi.NewWhatIf(cfg.WarmupRows, geometrySweep(cache.P4L2)...)
		whatIf, err := RunUMI(w, P4, cfg, false, false, func(r *UMIRun) { r.Sys.AddConsumer(wi) })
		if err != nil {
			return nil, err
		}
		lo, hi := 1.0, 0.0
		for _, r := range wi.Results() {
			res.Geometries = append(res.Geometries, GeometryPoint{Config: r.Config, MissRatio: r.MissRatio})
			lo, hi = min(lo, r.MissRatio), max(hi, r.MissRatio)
		}
		res.GeomSpread = hi - lo

		// Profile-length sweep (separate runs; the recorded history
		// itself changes). The point whose configuration is the standard
		// one reads the what-if run.
		lo, hi = 1.0, 0.0
		for _, rows := range []int{16, 64, 256, 1024} {
			c := UMIParams(P4)
			setProfileRows(&c, rows)
			run := whatIf
			if c != cfg {
				if run, err = RunUMI(w, P4, c, false, false); err != nil {
					return nil, err
				}
			}
			r := run.Report.SimMissRatio
			res.Lengths = append(res.Lengths, LengthPoint{Rows: rows, MissRatio: r})
			lo, hi = min(lo, r), max(hi, r)
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
