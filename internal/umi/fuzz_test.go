package umi

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"umi/internal/cache"
)

// FuzzAnalyzerProfile feeds arbitrary address profiles — random geometry,
// random density, random addresses, random alpha — through the profile
// analyzer and checks the numeric contract every consumer assumes: no
// panic, every miss ratio in [0,1] and never NaN, stride confidences in
// [0,1], and the delinquent set restricted to profiled loads. The counts
// must equal a naive cell-by-cell replay through a fresh mini-simulator,
// and a second analyzer replaying the same profile must land on identical
// results (determinism is what makes a replay's analysis, apart from the
// guest that captured the profiles, legal).
func FuzzAnalyzerProfile(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(30), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{})
	f.Add(uint8(7), uint8(31), uint8(100), []byte{255, 0, 255, 0, 128, 64, 32, 16})
	// A dense profile (every cell recorded), three loads by six rows: a
	// fixed-address column, a two-line column and a streaming one.
	dense := []byte{1, 2, 3}
	for r := 0; r < 6; r++ {
		dense = append(dense, 1, 0, 0, 1, 0, byte(8*(r%2)), 1, byte(r), 0)
	}
	f.Add(uint8(2), uint8(5), uint8(50), dense)
	// The same shape with every third cell unrecorded (sparse).
	sparse := []byte{1, 2, 3}
	for r := 0; r < 6; r++ {
		for c := 0; c < 3; c++ {
			if (r+c)%3 == 0 {
				sparse = append(sparse, 0)
				continue
			}
			sparse = append(sparse, 1, byte(r%4), byte(16*c))
		}
	}
	f.Add(uint8(2), uint8(5), uint8(50), sparse)
	f.Fuzz(func(t *testing.T, nOpsRaw, rowsRaw, alphaRaw uint8, data []byte) {
		nOps := 1 + int(nOpsRaw%8)
		rows := 1 + int(rowsRaw%32)
		alpha := float64(alphaRaw%101) / 100

		cursor := 0
		next := func() byte {
			if cursor >= len(data) {
				return 0
			}
			b := data[cursor]
			cursor++
			return b
		}

		ops := make([]uint64, nOps)
		isLoad := make([]bool, nOps)
		for i := range ops {
			ops[i] = 0x400000 + uint64(i)*4
			isLoad[i] = next()%4 != 0 // mostly loads, as in real traces
		}
		p := NewAddressProfile(ops, isLoad, rows)
		for r := 0; r < rows; r++ {
			row, ok := p.OpenRow()
			if !ok {
				t.Fatalf("profile full after %d of %d rows", r, rows)
			}
			for c := 0; c < nOps; c++ {
				if next()%4 == 0 {
					continue // unrecorded cell (partial trace execution)
				}
				addr := (uint64(next())<<8 | uint64(next())) * 8
				p.Record(row, c, addr)
			}
		}

		cfg := DefaultConfig(cache.P4L2)
		invCycles := uint64(next()) * 100_000
		run := func() *Analyzer {
			an := NewAnalyzer(&cfg)
			an.BeginInvocation(invCycles)
			an.AnalyzeProfile(p, alpha)
			return an
		}
		an := run()

		checkRatio := func(what string, r float64) {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("%s = %v, want a ratio in [0,1]", what, r)
			}
		}
		checkRatio("analyzer miss ratio", an.MissRatio())
		loads := make(map[uint64]bool)
		for i, pc := range ops {
			if isLoad[i] {
				loads[pc] = true
			}
		}
		for pc, st := range an.OpStats() {
			checkRatio("op stat miss ratio", st.MissRatio())
			if st.Misses > st.Accesses {
				t.Fatalf("op %#x: misses %d exceed accesses %d", pc, st.Misses, st.Accesses)
			}
		}
		for pc := range an.Delinquent() {
			if !loads[pc] {
				t.Fatalf("non-load %#x labelled delinquent", pc)
			}
			if _, ok := an.Column(pc); !ok {
				t.Fatalf("delinquent %#x has no recorded column", pc)
			}
		}
		for pc, si := range an.Strides() {
			checkRatio("stride confidence", si.Confidence)
			if !loads[pc] {
				t.Fatalf("non-load %#x has a stride", pc)
			}
			if si.Stride == 0 {
				t.Fatalf("load %#x: zero stride should not be recorded", pc)
			}
		}

		// Counts: every op's accesses and misses, and the overall miss
		// ratio, must equal a cell-by-cell replay of the profile through a
		// fresh mini-simulator with the warm-up rows uncounted.
		ref := cache.New(cfg.MiniSimCache)
		wantAcc := make([]uint64, nOps)
		wantMiss := make([]uint64, nOps)
		var totAcc, totMiss uint64
		for r := 0; r < p.Rows(); r++ {
			for c := 0; c < nOps; c++ {
				addr, ok := p.At(r, c)
				if !ok {
					continue
				}
				hit := ref.Access(addr).Hit
				if r < cfg.WarmupRows {
					continue
				}
				wantAcc[c]++
				totAcc++
				if !hit {
					wantMiss[c]++
					totMiss++
				}
			}
		}
		for c, pc := range ops {
			var st OpStat
			if s := an.OpStats()[pc]; s != nil {
				st = *s
			}
			if st.Accesses != wantAcc[c] || st.Misses != wantMiss[c] {
				t.Fatalf("op %#x: %d accesses / %d misses, naive replay %d / %d",
					pc, st.Accesses, st.Misses, wantAcc[c], wantMiss[c])
			}
		}
		wantRatio := 0.0
		if totAcc > 0 {
			wantRatio = float64(totMiss) / float64(totAcc)
		}
		if an.MissRatio() != wantRatio {
			t.Fatalf("miss ratio %v, naive replay %v (%d/%d)", an.MissRatio(), wantRatio, totMiss, totAcc)
		}

		// Strides: each load column's recorded stride is the reference
		// winner when it holds at least half of the column and is
		// non-zero; no other column records one.
		for c, pc := range ops {
			if !isLoad[c] {
				continue
			}
			ws, wf := refDominantStride(p.Column(c))
			si, ok := an.Strides()[pc]
			if want := (StrideInfo{Stride: ws, Confidence: wf}); wf >= 0.5 && ws != 0 {
				if !ok || si != want {
					t.Fatalf("load %#x: stride %+v (recorded %v), reference %+v", pc, si, ok, want)
				}
			} else if ok {
				t.Fatalf("load %#x: stride %+v recorded, reference %d at %v", pc, si, ws, wf)
			}
		}

		// Determinism: an independent analyzer over the same profile must
		// reproduce every cumulative result.
		again := run()
		if again.MissRatio() != an.MissRatio() ||
			again.SimulatedRefs != an.SimulatedRefs ||
			len(again.Delinquent()) != len(an.Delinquent()) {
			t.Fatalf("replay diverged: %v vs %v", again, an)
		}
	})
}

// FuzzDominantStride drives the stride rule with columns built from bytes
// — mostly a small alphabet of deltas around zero, so exact-half ties and
// bare majorities come up often, with wide deltas for columns of many
// distinct ones and 0xff for an unrecorded cell — and checks it against
// the sort-and-count reference: over the gathered column, over the cells
// in place, and over the cells interleaved with a second operation.
func FuzzDominantStride(f *testing.F) {
	f.Add(uint64(0), []byte{0, 4, 0, 4})                          // +16/-16 tie
	f.Add(uint64(1<<20), []byte{2, 3, 2, 3, 2, 3})                // zero/+8 tie
	f.Add(uint64(64), []byte{3, 0xff, 3, 0xff, 0xff, 3, 3, 1, 4}) // holes
	f.Add(uint64(7), []byte{3, 0xff})                             // too short
	many := []byte{}
	for i := 0; i < 20; i++ {
		many = append(many, 3, byte(0x80+i))
	}
	f.Add(uint64(1<<40), many) // 21 distinct deltas, +8 holding half
	f.Fuzz(func(t *testing.T, base uint64, data []byte) {
		cells := []uint64{}
		a := base
		for _, b := range data {
			switch {
			case b == 0xff:
				cells = append(cells, noAddr)
				continue
			case b < 0x80:
				a += uint64(8 * (int64(b%5) - 2))
			default:
				a += uint64(b) << 6
			}
			cells = append(cells, a)
		}
		var col []uint64
		for _, c := range cells {
			if c != noAddr {
				col = append(col, c)
			}
		}
		s, fr := DominantStride(col)
		if err := checkStride(col, s, fr); err != nil {
			t.Fatalf("gathered: %v", err)
		}
		s, fr = dominantStride(cells, 0, 1)
		if err := checkStride(col, s, fr); err != nil {
			t.Fatalf("in place: %v", err)
		}
		pair := make([]uint64, 0, 2*len(cells))
		for i, c := range cells {
			pair = append(pair, base^uint64(i), c)
		}
		s, fr = dominantStride(pair, 1, 2)
		if err := checkStride(col, s, fr); err != nil {
			t.Fatalf("interleaved: %v", err)
		}
	})
}

// FuzzWindowSummary round-trips arbitrary window summaries through the
// exported JSON layout (umiprof -history-out, /history). Every field must
// survive: a silent drop here would corrupt the history export schema.
func FuzzWindowSummary(f *testing.F) {
	f.Add(1, uint64(1000), uint64(64), uint64(60), uint64(12), 3, -1, uint64(0xdeadbeef), int64(64), 5, 200, true)
	f.Add(0, uint64(0), uint64(0), uint64(0), uint64(0), 0, 0, uint64(0), int64(0), 0, 0, false)
	f.Fuzz(func(t *testing.T, inv int, cycles, refs, acc, miss uint64,
		del, newDel int, hash uint64, stride int64, strided, ws int, phase bool) {
		w := WindowSummary{
			Invocation:     inv,
			Cycles:         cycles,
			Refs:           refs,
			Accesses:       acc,
			Misses:         miss,
			CumMissRatio:   float64(miss%7) / 7,
			Delinquent:     del,
			NewDelinquent:  newDel,
			DelinquentHash: hash,
			Jaccard:        float64(acc%11) / 11,
			PhaseChange:    phase,
			StridedLoads:   strided,
			TopStride:      stride,
			WSLines:        ws,
		}
		if acc > 0 {
			w.WindowMissRatio = float64(miss%acc) / float64(acc)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back WindowSummary
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(w, back) {
			t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", w, back)
		}
		// The view wrapper must round-trip too, including the schema stamp.
		v := HistoryView{Schema: historySchema, Total: 1, Cap: 4,
			Windows: []WindowSummary{w}}
		if phase {
			v.PhaseChanges = 1
		}
		vb, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal view: %v", err)
		}
		var vback HistoryView
		if err := json.Unmarshal(vb, &vback); err != nil {
			t.Fatalf("unmarshal view: %v", err)
		}
		if !reflect.DeepEqual(v, vback) {
			t.Fatalf("view round trip diverged:\n  in  %+v\n  out %+v", v, vback)
		}
	})
}
