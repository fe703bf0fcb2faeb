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
// results (determinism is what makes the pipeline's out-of-band analysis
// legal).
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
