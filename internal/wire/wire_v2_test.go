package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// testStreamV2 is testStream re-recorded through the v2 encoder.
func testStreamV2() []byte {
	var buf bytes.Buffer
	e := NewEncoderV2(&buf)
	e.Header(testHeader())
	e.Invocation(500, 0)
	e.Invocation(1500, 2)
	e.Profile(denseProfile())
	e.Profile(sparseProfile())
	e.History(HistoryMeta{Total: 5, PhaseChanges: 1, Cap: 64, Windows: 2})
	e.Window(testWindow(1))
	e.Window(testWindow(2))
	e.Trailer(testTrailer())
	if err := e.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestRoundTripV2(t *testing.T) {
	stream := testStreamV2()
	d := NewDecoder(bytes.NewReader(stream))
	h, err := d.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if d.Version() != Version2 {
		t.Fatalf("Version() = %#02x, want Version2", d.Version())
	}
	if want := testHeader(); h != want {
		t.Errorf("header round trip:\n got %+v\nwant %+v", h, want)
	}
	var recs []Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		recs = append(recs, rec)
	}
	tr, ok := recs[len(recs)-1].(*Trailer)
	if !ok {
		t.Fatalf("last record is %T, want *Trailer", recs[len(recs)-1])
	}
	// The manifest was auto-derived: 7 record frames + the header precede
	// the trailer, the shard ID defaults to the content checksum, and the
	// decoder's rolling checksum must agree with the declaration.
	if tr.Shard.Frames != 8 {
		t.Errorf("manifest frames = %d, want 8", tr.Shard.Frames)
	}
	if tr.Shard.Checksum == 0 || tr.Shard.ShardID != tr.Shard.Checksum {
		t.Errorf("manifest = %+v, want shard ID derived from a nonzero checksum", tr.Shard)
	}
	if d.Checksum() != tr.Shard.Checksum {
		t.Errorf("Decoder.Checksum() = %#x, manifest says %#x", d.Checksum(), tr.Shard.Checksum)
	}
	// Record contents match the v1 round trip expectations exactly.
	wantSparse := sparseProfile()
	wantSparse.Recorded = len(wantSparse.Cells) - 3
	wantDense := denseProfile()
	wantDense.Recorded = len(wantDense.Cells)
	wantTrailer := testTrailer()
	wantTrailer.Shard = tr.Shard
	want := []Record{
		&Invocation{Cycles: 500, Profiles: 0},
		&Invocation{Cycles: 1500, Profiles: 2},
		&wantDense,
		&wantSparse,
		&HistoryMeta{Total: 5, PhaseChanges: 1, Cap: 64, Windows: 2},
		ptr(testWindow(1)),
		ptr(testWindow(2)),
		&wantTrailer,
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(recs[i], want[i]) {
			t.Errorf("record %d:\n got %#v\nwant %#v", i, recs[i], want[i])
		}
	}
}

// TestDecoderRecycle: cells handed back through Recycle are decoded into
// again, and a profile decoded into a used (here poisoned) buffer equals
// the one decoded fresh, in both stream versions.
func TestDecoderRecycle(t *testing.T) {
	for version, newEncoder := range map[int]func(io.Writer) *Encoder{1: NewEncoder, 2: NewEncoderV2} {
		var buf bytes.Buffer
		e := newEncoder(&buf)
		e.Header(testHeader())
		for inv := 0; inv < 3; inv++ {
			e.Invocation(uint64(100*inv), 2)
			e.Profile(denseProfile())
			e.Profile(sparseProfile())
		}
		e.Trailer(testTrailer())
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		_, want, err := decodeAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := d.Header(); err != nil {
			t.Fatal(err)
		}
		var handedBack *uint64
		reused := 0
		for i := 0; ; i++ {
			rec, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			p, ok := rec.(*Profile)
			if !ok {
				continue
			}
			if &p.Cells[0] == handedBack {
				reused++
			}
			if !reflect.DeepEqual(p, want[i]) {
				t.Fatalf("v%d record %d decoded into a handed-back buffer: %+v, want %+v", version, i, p, want[i])
			}
			for j := range p.Cells {
				p.Cells[j] = ^uint64(j)
			}
			handedBack = &p.Cells[0]
			d.Recycle(p.Cells)
		}
		if reused != 5 {
			t.Errorf("v%d: %d of 5 later profiles decoded into the handed-back buffer", version, reused)
		}
	}
}

func TestV2Truncation(t *testing.T) {
	stream := testStreamV2()
	for n := 0; n < len(stream); n++ {
		if _, _, err := decodeAll(bytes.NewReader(stream[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(stream))
		}
	}
}

func TestV2TrailingGarbage(t *testing.T) {
	stream := append(testStreamV2(), 0x00)
	if _, _, err := decodeAll(bytes.NewReader(stream)); err == nil ||
		!strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("trailing byte: err = %v, want trailing-bytes error", err)
	}
}

// bigProfile is a stride-regular profile large enough for the block coder
// to bite: the shape real captures have (few hot PCs, striding addresses).
func bigProfile(rows int) Profile {
	p := Profile{
		Alpha:  0.9,
		PCs:    []uint64{0x400100, 0x400180, 0x400240, 0x4002c0},
		IsLoad: []bool{true, true, false, true},
		Rows:   rows,
	}
	p.Cells = make([]uint64, p.Rows*len(p.PCs))
	for i := range p.Cells {
		p.Cells[i] = 0x7f_0000_0000 + uint64(i)*2 // constant stride
	}
	return p
}

// TestV2Compression pins the tentpole ratio on a synthetic stride-regular
// stream: delta pre-transform plus DEFLATE must beat the v1 encoding by
// at least 3x (the em3d acceptance bar, reproduced here without a guest).
func TestV2Compression(t *testing.T) {
	record := func(e *Encoder) {
		e.Header(testHeader())
		for i := 0; i < 4; i++ {
			e.Invocation(uint64(1000*i), 1)
			e.Profile(bigProfile(2048))
		}
		e.Trailer(testTrailer())
	}
	var v1, v2 bytes.Buffer
	e1 := NewEncoder(&v1)
	record(e1)
	if err := e1.Flush(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEncoderV2(&v2)
	record(e2)
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(v1.Len()) / float64(v2.Len()); ratio < 3 {
		t.Errorf("v2 compression ratio %.2fx (v1 %d bytes, v2 %d bytes), want >= 3x",
			ratio, v1.Len(), v2.Len())
	}
	// And the compressed stream still decodes to the same records.
	h1, r1, err := decodeAll(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2, r2, err := decodeAll(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("headers differ across versions")
	}
	t2 := r2[len(r2)-1].(*Trailer)
	t2.Shard = Manifest{} // v1 carries no manifest; compare the rest
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("records differ across versions")
	}
}

// writeFrameV2 hand-builds one stored v2 frame, returning the bytes.
func writeFrameV2(typ byte, payload []byte) []byte {
	b := []byte{typ, methodStored}
	b = appendUv(b, uint64(len(payload)))
	return append(b, payload...)
}

// minimalHeaderPayload is the hand-built header TestGrammarRejections
// uses, shared here for v2 frame-level rejection tests.
func minimalHeaderPayload() []byte {
	var hdr []byte
	for i := 0; i < 3; i++ {
		hdr = appendUv(hdr, 0)
	}
	hdr = appendUv(hdr, 1024)
	hdr = appendUv(hdr, 2)
	hdr = appendUv(hdr, 64)
	hdr = append(hdr, 0)
	for i := 0; i < 4; i++ {
		hdr = appendUv(hdr, 1)
	}
	hdr = appendUv(hdr, 0)
	hdr = appendF64(hdr, 0)
	hdr = appendF64(hdr, 0)
	return hdr
}

// TestV2ManifestRejections: a trailer manifest contradicting the observed
// frame count or checksum is a decode error, not a shrug.
func TestV2ManifestRejections(t *testing.T) {
	headerFrame := writeFrameV2(frameHeader, minimalHeaderPayload())
	goodChk := fnvUpdate(fnvOffset64, headerFrame)
	trailerPayload := func(frames, chk uint64) []byte {
		p := appendUv(nil, 7) // shard ID
		p = appendUv(p, frames)
		var le [8]byte
		for i := range le {
			le[i] = byte(chk >> (8 * i))
		}
		p = append(p, le[:]...)
		for i := 0; i < 7; i++ { // trailer counters
			p = appendUv(p, 0)
		}
		p = appendUv(p, 0) // candidate set
		p = appendUv(p, 0) // trace set
		return p
	}
	build := func(frames, chk uint64) []byte {
		b := []byte(Magic)
		b = append(b, Version2, CodecStored)
		b = append(b, headerFrame...)
		return append(b, writeFrameV2(frameTrailer, trailerPayload(frames, chk))...)
	}
	if _, _, err := decodeAll(bytes.NewReader(build(1, goodChk))); err != nil {
		t.Fatalf("well-formed manifest rejected: %v", err)
	}
	if _, _, err := decodeAll(bytes.NewReader(build(2, goodChk))); err == nil ||
		!strings.Contains(err.Error(), "declares 2 frames") {
		t.Fatalf("frame-count mismatch: err = %v", err)
	}
	if _, _, err := decodeAll(bytes.NewReader(build(1, goodChk+1))); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("checksum mismatch: err = %v", err)
	}
}

// TestV2FrameRejections: transport-level v2 malformations.
func TestV2FrameRejections(t *testing.T) {
	preamble := func(codec byte) []byte {
		return append([]byte(Magic), Version2, codec)
	}
	t.Run("unknown codec", func(t *testing.T) {
		d := NewDecoder(bytes.NewReader(preamble(0x7e)))
		if _, err := d.Header(); err == nil || !strings.Contains(err.Error(), "unknown codec") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown method", func(t *testing.T) {
		b := append(preamble(CodecFlate), frameHeader, 0x7e)
		d := NewDecoder(bytes.NewReader(b))
		if _, err := d.Header(); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("coded frame under stored codec", func(t *testing.T) {
		b := append(preamble(CodecStored), frameHeader, methodCoded)
		d := NewDecoder(bytes.NewReader(b))
		if _, err := d.Header(); err == nil || !strings.Contains(err.Error(), "stored-codec") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("raw length mismatch", func(t *testing.T) {
		payload := minimalHeaderPayload()
		var coded bytes.Buffer
		fw, _ := flate.NewWriter(&coded, flate.DefaultCompression)
		fw.Write(payload)
		fw.Close()
		b := append(preamble(CodecFlate), frameHeader, methodCoded)
		b = appendUv(b, uint64(len(payload))+1) // lies about the raw length
		b = appendUv(b, uint64(coded.Len()))
		b = append(b, coded.Bytes()...)
		d := NewDecoder(bytes.NewReader(b))
		if _, err := d.Header(); err == nil || !strings.Contains(err.Error(), "inflate") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestTranscode: v1 -> v2 -> v1 is the identity on our encoder's output,
// and the v2 leg preserves the shard ID.
func TestTranscode(t *testing.T) {
	v1 := testStream()
	var v2 bytes.Buffer
	if err := Transcode(&v2, bytes.NewReader(v1), Version2); err != nil {
		t.Fatalf("v1->v2: %v", err)
	}
	var back bytes.Buffer
	if err := Transcode(&back, bytes.NewReader(v2.Bytes()), Version); err != nil {
		t.Fatalf("v2->v1: %v", err)
	}
	if !bytes.Equal(v1, back.Bytes()) {
		t.Errorf("v1 -> v2 -> v1 is not the identity (%d vs %d bytes)", len(v1), back.Len())
	}
	var again bytes.Buffer
	if err := Transcode(&again, bytes.NewReader(v2.Bytes()), Version2); err != nil {
		t.Fatalf("v2->v2: %v", err)
	}
	m1, ok1, err1 := ScanManifest(bytes.NewReader(v2.Bytes()))
	m2, ok2, err2 := ScanManifest(bytes.NewReader(again.Bytes()))
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Fatalf("ScanManifest: %v %v %v %v", m1, err1, m2, err2)
	}
	if m1.ShardID != m2.ShardID {
		t.Errorf("v2->v2 transcode changed shard ID: %#x -> %#x", m1.ShardID, m2.ShardID)
	}
}

func TestScanManifest(t *testing.T) {
	if _, ok, err := ScanManifest(bytes.NewReader(testStream())); ok || err != nil {
		t.Fatalf("v1 stream: ok=%v err=%v, want no manifest, no error", ok, err)
	}
	stream := testStreamV2()
	m, ok, err := ScanManifest(bytes.NewReader(stream))
	if err != nil || !ok {
		t.Fatalf("v2 stream: ok=%v err=%v", ok, err)
	}
	if m.Frames != 8 || m.Checksum == 0 || m.ShardID != m.Checksum {
		t.Errorf("manifest = %+v, want 8 frames and checksum-derived shard ID", m)
	}
	if _, _, err := ScanManifest(bytes.NewReader(stream[:len(stream)-3])); err == nil {
		t.Errorf("truncated stream scanned without error")
	}
}

// TestFrameHook: the hook fires once per frame with the underlying writer
// flushed to a frame boundary — the contract the live shipper chunks on.
func TestFrameHook(t *testing.T) {
	var out bytes.Buffer
	e := NewEncoderV2(&out)
	var marks []int
	e.SetFrameHook(func() { marks = append(marks, out.Len()) })
	e.Header(testHeader())
	e.Invocation(500, 1)
	e.Profile(denseProfile())
	e.Trailer(testTrailer())
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(marks) != 4 {
		t.Fatalf("hook fired %d times, want 4", len(marks))
	}
	if marks[len(marks)-1] != out.Len() {
		t.Errorf("final hook at %d bytes, stream is %d", marks[len(marks)-1], out.Len())
	}
	// Every prefix the hook observed must be strictly growing, and the
	// whole stream must decode.
	for i := 1; i < len(marks); i++ {
		if marks[i] <= marks[i-1] {
			t.Errorf("hook mark %d (%d bytes) did not advance past %d", i, marks[i], marks[i-1])
		}
	}
	if _, _, err := decodeAll(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("hooked stream does not decode: %v", err)
	}
}

// TestSetShardID: an explicit shard ID overrides checksum derivation.
func TestSetShardID(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoderV2(&buf)
	e.SetShardID(0xabcdef)
	e.Header(testHeader())
	e.Trailer(Trailer{})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := ScanManifest(bytes.NewReader(buf.Bytes()))
	if err != nil || !ok {
		t.Fatalf("ScanManifest: ok=%v err=%v", ok, err)
	}
	if m.ShardID != 0xabcdef {
		t.Errorf("shard ID = %#x, want 0xabcdef", m.ShardID)
	}
}

// TestErrTruncated: transport-level failures (the stream cuts off) match
// ErrTruncated — the resumable class — while content-level malformations
// do not. The ingest path keys poison-vs-resume on this distinction.
func TestErrTruncated(t *testing.T) {
	stream := testStreamV2()
	for _, n := range []int{len(stream) / 3, len(stream) / 2, len(stream) - 1} {
		_, _, err := decodeAll(bytes.NewReader(stream[:n]))
		if err == nil || !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d/%d bytes: err = %v, want ErrTruncated", n, len(stream), err)
		}
	}
	// A content-level malformation: an oversized frame declaration is
	// corruption, not a short read, and must not read as resumable.
	bad := append([]byte(Magic), Version2, CodecStored)
	bad = append(bad, frameHeader, methodStored)
	bad = appendUv(bad, MaxFramePayload+1)
	d := NewDecoder(bytes.NewReader(bad))
	if _, err := d.Header(); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("oversized frame: err = %v, want non-truncation error", err)
	}
}
