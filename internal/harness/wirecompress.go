package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"umi/internal/stats"
	"umi/internal/umi"
	"umi/internal/wire"
)

// Wire-format compression: record real workloads' telemetry, transcode
// the v1 recording to umi-profile/v2 (delta pre-transform + per-frame
// DEFLATE), and measure what the format buys — stream size — and what it
// must not cost: the replayed report has to stay byte-identical across
// versions. Profiled address streams are stride-regular, which is exactly
// the shape the v2 cell deltas and block coder exploit.

// WireCompressRow is one workload's measurement.
type WireCompressRow struct {
	Workload  string
	V1Bytes   int
	V2Bytes   int
	Ratio     float64 // v1 / v2
	Identical bool    // replayed reports byte-identical across versions

	// Wall-clock transcode throughput (nondeterministic; LiveString only).
	EncodeNsPerMB float64 `json:"-"`
	DecodeNsPerMB float64 `json:"-"`
}

// WireCompressResult is the sweep.
type WireCompressResult struct {
	Rows []WireCompressRow
}

// replayFingerprint replays one stream and marshals everything the
// Replay makes of it — the report, the streamed history and the merged
// trailer accounting — so two streams with equal fingerprints are
// interchangeable inputs to every downstream consumer.
func replayFingerprint(stream []byte) ([]byte, error) {
	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		return nil, err
	}
	cfg, err := umi.ConfigFromWireHeader(h)
	if err != nil {
		return nil, err
	}
	rp := umi.NewReplay(cfg)
	if _, err := rp.Consume(dec); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Report  *umi.Report
		History umi.HistoryView
		Trailer wire.Trailer
	}{rp.Report(), rp.History(), rp.Trailer()})
}

// WireCompress records each workload, transcodes its stream to v2, and
// verifies replay equivalence. Empty names defaults to em3d (the paper's
// stride-heavy graph chase) plus 181.mcf.
func WireCompress(names []string) (*WireCompressResult, error) {
	if len(names) == 0 {
		names = []string{"em3d", "181.mcf"}
	}
	res := &WireCompressResult{}
	for _, name := range names {
		v1, err := EmitWorkloadStream(name)
		if err != nil {
			return nil, err
		}
		var v2 bytes.Buffer
		encStart := time.Now()
		if err := wire.Transcode(&v2, bytes.NewReader(v1), wire.Version2); err != nil {
			return nil, fmt.Errorf("harness: transcode %s: %w", name, err)
		}
		encNs := float64(time.Since(encStart).Nanoseconds())
		decStart := time.Now()
		f2, err := replayFingerprint(v2.Bytes())
		if err != nil {
			return nil, fmt.Errorf("harness: replay v2 %s: %w", name, err)
		}
		decNs := float64(time.Since(decStart).Nanoseconds())
		f1, err := replayFingerprint(v1)
		if err != nil {
			return nil, fmt.Errorf("harness: replay v1 %s: %w", name, err)
		}
		mb := float64(len(v1)) / (1 << 20)
		res.Rows = append(res.Rows, WireCompressRow{
			Workload:      name,
			V1Bytes:       len(v1),
			V2Bytes:       v2.Len(),
			Ratio:         float64(len(v1)) / float64(v2.Len()),
			Identical:     bytes.Equal(f1, f2),
			EncodeNsPerMB: encNs / mb,
			DecodeNsPerMB: decNs / mb,
		})
	}
	return res, nil
}

// String renders the deterministic half: sizes, ratios, and replay
// equivalence (golden-testable). Throughput lives in LiveString.
func (r *WireCompressResult) String() string {
	t := stats.NewTable(
		"Wire-format v2 compression — one recording, two encodings, identical replays",
		"Workload", "v1 bytes", "v2 bytes", "Ratio", "Replay identical")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			fmt.Sprint(row.V1Bytes), fmt.Sprint(row.V2Bytes),
			fmt.Sprintf("%.2fx", row.Ratio), fmt.Sprint(row.Identical))
	}
	return t.String()
}

// LiveString renders the measured half: wall-clock transcode and replay
// throughput, which varies run to run.
func (r *WireCompressResult) LiveString() string {
	var sb bytes.Buffer
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-16s transcode %.1f ms/MB of v1, v2 replay %.1f ms/MB\n",
			row.Workload, row.EncodeNsPerMB/1e6, row.DecodeNsPerMB/1e6)
	}
	return sb.String()
}
