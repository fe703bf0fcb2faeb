package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The end-to-end tests drive run() — main minus os.Exit — so they exercise
// the real flag parsing, simulation, and rendering path of the binary.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestE2EList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("umisim -list exited %d", code)
	}
	if !strings.Contains(out, "181.mcf") || !strings.Contains(out, "470.lbm") {
		t.Errorf("-list output incomplete:\n%s", out)
	}
}

func TestE2EBadInvocations(t *testing.T) {
	if code, _, errs := runCLI(t); code != 2 || !strings.Contains(errs, "usage:") {
		t.Errorf("no args: exit %d, stderr %q; want 2 with usage", code, errs)
	}
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, errs := runCLI(t, "no-such-workload"); code != 1 ||
		!strings.Contains(errs, "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q; want 1 with diagnosis", code, errs)
	}
	if code, _, _ := runCLI(t, "-replay", filepath.Join(t.TempDir(), "absent.umi")); code != 1 {
		t.Errorf("missing replay file: exit %d, want 1", code)
	}
	if code, out, errs := runCLI(t, "-machine", "x86", "470.lbm"); code != 2 ||
		!strings.Contains(errs, "-machine must be p4 or k7") || out != "" {
		t.Errorf("unknown machine: exit %d, stdout %q, stderr %q; want 2 with diagnosis", code, out, errs)
	}
}

func TestE2EReportShape(t *testing.T) {
	code, out, errs := runCLI(t, "-top", "5", "470.lbm")
	if code != 0 {
		t.Fatalf("umisim 470.lbm exited %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"workload: 470.lbm",
		"L1:",
		"L2:",
		"top 5 instructions by L2 misses:",
		"delinquent load set C (90% coverage):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\nfull output:\n%s", want, out)
		}
	}
}

func TestE2EAnnotate(t *testing.T) {
	code, plain, _ := runCLI(t, "470.lbm")
	if code != 0 {
		t.Fatal("plain run failed")
	}
	code, annotated, _ := runCLI(t, "-annotate", "470.lbm")
	if code != 0 {
		t.Fatal("-annotate run failed")
	}
	if len(annotated) <= len(plain) {
		t.Error("-annotate added no disassembly")
	}
	if !strings.HasPrefix(annotated, plain) {
		t.Error("-annotate must extend the plain report, not alter it")
	}
}

// TestE2ERecordReplay closes the trace loop: simulating from a recorded
// trace must reach exactly the statistics of the live run that wrote it.
func TestE2ERecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lbm.umi")
	code, live, errs := runCLI(t, "-record", path, "470.lbm")
	if code != 0 {
		t.Fatalf("record run exited %d, stderr %q", code, errs)
	}
	if !strings.Contains(errs, "recorded ") {
		t.Errorf("record run did not report the trace write: %q", errs)
	}
	code, replayed, errs := runCLI(t, "-replay", path)
	if code != 0 {
		t.Fatalf("replay run exited %d, stderr %q", code, errs)
	}
	// Identical statistics, different headline: compare everything after
	// the workload line.
	liveBody := live[strings.Index(live, "\n")+1:]
	replayBody := replayed[strings.Index(replayed, "\n")+1:]
	if liveBody != replayBody {
		t.Errorf("replay diverged from the live run:\n--- live ---\n%s--- replay ---\n%s",
			liveBody, replayBody)
	}
}
