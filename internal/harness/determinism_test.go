package harness

import (
	"fmt"
	"sort"
	"testing"

	"umi/internal/umi"
	"umi/internal/workloads"
)

// reportKey serializes everything a UMI run reports — the delinquent set,
// per-PC simulation statistics, stride table, aggregate counters, and the
// modelled cycle total — deterministically, so two runs can be compared
// byte for byte.
func reportKey(t *testing.T, name string, cfg umi.Config) string {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	run, err := RunUMI(w, P4, cfg, false, false)
	if err != nil {
		t.Fatal(err)
	}
	r := run.Report
	s := fmt.Sprintf("%s: del=%s nstrides=%v miss=%v refs=%d flushes=%d cycles=%d inv=%d prof=%d instr=%d ",
		name, SortedPCs(r.Delinquent), len(r.Strides), r.SimMissRatio, r.SimulatedRefs, r.Flushes,
		run.TotalCycles(), r.AnalyzerInvocations, r.ProfilesCollected, r.InstrumentEvents)
	type opKey struct{ PC, A, M uint64 }
	var ops []opKey
	for pc, st := range r.OpStats {
		ops = append(ops, opKey{pc, st.Accesses, st.Misses})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].PC < ops[j].PC })
	var st []string
	for pc, si := range r.Strides {
		st = append(st, fmt.Sprintf("%x:%d:%.4f", pc, si.Stride, si.Confidence))
	}
	sort.Strings(st)
	return s + fmt.Sprint(ops) + fmt.Sprint(st)
}

// TestAnalyzerWorkersDeterminism pins that the ignored
// Config.AnalyzerWorkers changes nothing: the whole-run benchmark holds
// its inline runs to a reference run at AnalyzerWorkers 2, so workers=1
// and workers=4 must produce identical reports. 197.parser regularly has
// several live profiles per analyzer invocation, so it exercises the
// fixed PC-sorted merge order; mcf is the memory-intensive
// single-hot-loop case.
func TestAnalyzerWorkersDeterminism(t *testing.T) {
	for _, name := range []string{"197.parser", "181.mcf"} {
		serial := UMIParams(P4)
		serial.AnalyzerWorkers = 1
		parallel := UMIParams(P4)
		parallel.AnalyzerWorkers = 4
		got, want := reportKey(t, name, parallel), reportKey(t, name, serial)
		if got != want {
			t.Errorf("%s: workers=4 report differs from workers=1:\n  workers=4: %s\n  workers=1: %s",
				name, got, want)
		}
	}
}

// TestSerialRunsAreDeterministic guards the determinism bugfix: the
// analyzer used to walk live profiles in Go map order, so two identical
// serial runs of a multi-trace workload could report different delinquent
// sets and miss counts. parser and eon are the two workloads that
// empirically exposed this.
func TestSerialRunsAreDeterministic(t *testing.T) {
	for _, name := range []string{"197.parser", "252.eon"} {
		cfg := UMIParams(P4)
		first := reportKey(t, name, cfg)
		if again := reportKey(t, name, cfg); again != first {
			t.Errorf("%s: two serial runs differ:\n  run 1: %s\n  run 2: %s", name, first, again)
		}
	}
}

// TestHarnessParallelismDeterminism asserts the experiment-level fan-out
// contract: -parallel N renders the same tables as a serial run.
func TestHarnessParallelismDeterminism(t *testing.T) {
	subset := []string{"181.mcf", "em3d", "164.gzip", "ft"}
	serial, err := Table3(subset)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	defer SetParallelism(1)
	parallel, err := Table3(subset)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parallel.String(), serial.String(); got != want {
		t.Errorf("Table3 differs at parallelism 4:\n--- parallel\n%s\n--- serial\n%s", got, want)
	}
}
