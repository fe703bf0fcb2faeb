package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrTruncated marks decode errors caused by the stream ending (or the
// transport failing) mid-frame, as opposed to well-framed but invalid
// content. A consumer holding a cleanly-applied prefix may treat such a
// stream as resumable; every other decode error means corrupt content.
var ErrTruncated = errors.New("truncated stream")

// Decoder reads one umi-profile stream (v1 or v2, auto-detected from the
// preamble) record by record. It reads one frame at a time into a
// reusable buffer — never the whole stream — so memory stays bounded by
// the per-frame limits regardless of input size. Malformed input (bad
// magic, unknown version, codec, frame type or method, frames out of
// grammar order, over-limit sizes, non-canonical encodings, a manifest
// contradicting the observed frames, truncation, trailing bytes) is an
// error from Header or Next; the decoder never panics on any input.
type Decoder struct {
	r       *bufio.Reader
	buf     []byte // on-wire frame payload scratch, reused
	raw     []byte // v2 inflated payload scratch, reused
	fhdr    []byte // current frame's on-wire header bytes, for the checksum
	err     error  // sticky
	frames  uint64
	bytes   uint64
	chk     uint64 // rolling FNV-1a over non-trailer frame bytes
	version byte
	codec   byte

	fr io.ReadCloser // v2 block decoder, Reset per coded frame
	br *bytes.Reader

	cellPrev map[uint64]uint64 // v2 per-PC cell predecessors, stream-persistent
	pred     []int             // v2 per-column predictor list, per-profile scratch
	colPrev  []uint64          // v2 per-column cell predecessors, per-profile scratch
	free     [][]uint64        // cell buffers handed back through Recycle

	gotHeader       bool
	pendingProfiles int
	historySeen     bool
	pendingWindows  int
	done            bool
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r), chk: fnvOffset64}
}

// Frames reports how many frames have been decoded so far (header
// included).
func (d *Decoder) Frames() uint64 { return d.frames }

// Bytes reports how many stream bytes the decoded frames span (magic and
// version included).
func (d *Decoder) Bytes() uint64 { return d.bytes }

// Version reports the stream's version byte, valid once Header returns.
func (d *Decoder) Version() byte { return d.version }

// Checksum reports the rolling FNV-1a over the on-wire bytes of every
// non-trailer frame decoded so far — the quantity a v2 trailer manifest
// declares and, paired with Frames at a frame boundary, the resume point
// a live-tail re-upload is verified against.
func (d *Decoder) Checksum() uint64 { return d.chk }

func (d *Decoder) fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode: "+format, args...)
	}
	return d.err
}

// failTruncated wraps a raw-read error, mapping bare EOF mid-structure to
// ErrUnexpectedEOF: inside a frame, running out of bytes is truncation.
// The resulting error matches ErrTruncated.
func (d *Decoder) failTruncated(what string, err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode: %s: %w (%w)", what, err, ErrTruncated)
	}
	return d.err
}

// Header consumes the stream preamble and the header frame. It must be
// called once, before Next.
func (d *Decoder) Header() (Header, error) {
	if d.err != nil {
		return Header{}, d.err
	}
	if d.gotHeader {
		return Header{}, d.fail("Header called twice")
	}
	var magic [5]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		return Header{}, d.failTruncated("magic", err)
	}
	d.bytes += 5
	if string(magic[:4]) != Magic {
		return Header{}, d.fail("bad magic %q", magic[:4])
	}
	switch magic[4] {
	case Version:
		d.version = Version
	case Version2:
		d.version = Version2
		codec, err := d.r.ReadByte()
		if err != nil {
			return Header{}, d.failTruncated("codec", err)
		}
		d.bytes++
		if codec != CodecStored && codec != CodecFlate {
			return Header{}, d.fail("unknown codec 0x%02x", codec)
		}
		d.codec = codec
	default:
		return Header{}, d.fail("unsupported version 0x%02x (want 0x%02x or 0x%02x)",
			magic[4], Version, Version2)
	}
	typ, payload, err := d.readFrame()
	if err != nil {
		return Header{}, err
	}
	if typ != frameHeader {
		return Header{}, d.fail("first frame type 0x%02x, want header", typ)
	}
	c := cursor{d: d, b: payload}
	var h Header
	h.Workload = c.str()
	h.Machine = c.str()
	h.CacheName = c.str()
	h.CacheSize = c.uvarint()
	h.CacheAssoc = c.uvarint()
	h.CacheLine = c.uvarint()
	h.CachePolicy = c.byte()
	h.WarmupRows = c.uvarint()
	h.FlushCycleGap = c.uvarint()
	h.AnalyzerPerRef = c.uvarint()
	h.AnalyzerFixed = c.uvarint()
	h.HistoryWindows = c.zigzag()
	h.PhaseMissDelta = c.f64()
	h.PhaseChurnDelta = c.f64()
	if err := c.finish("header"); err != nil {
		return Header{}, err
	}
	d.gotHeader = true
	return h, nil
}

// Next returns the next record: one of *Invocation, *Profile,
// *HistoryMeta, *Window, *Trailer. After the trailer it verifies the
// stream ends and returns io.EOF. Slices in returned records are owned by
// the caller; a profile's Cells may reuse a buffer handed back through
// Recycle, and every other slice is freshly allocated.
func (d *Decoder) Next() (Record, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.gotHeader {
		return nil, d.fail("Next before Header")
	}
	if d.done {
		return nil, io.EOF
	}
	typ, payload, err := d.readFrame()
	if err != nil {
		return nil, err
	}
	// Grammar: an invocation's declared profiles and a history section's
	// declared windows must follow immediately and exactly.
	switch {
	case d.pendingProfiles > 0 && typ != frameProfile:
		return nil, d.fail("frame type 0x%02x while %d profiles still expected", typ, d.pendingProfiles)
	case d.pendingWindows > 0 && typ != frameWindow:
		return nil, d.fail("frame type 0x%02x while %d windows still expected", typ, d.pendingWindows)
	}
	c := cursor{d: d, b: payload}
	switch typ {
	case frameInvocation:
		if d.historySeen {
			return nil, d.fail("invocation frame after history section")
		}
		inv := &Invocation{Cycles: c.uvarint()}
		inv.Profiles = c.count("invocation profiles", MaxInvocationProfiles)
		if err := c.finish("invocation"); err != nil {
			return nil, err
		}
		d.pendingProfiles = inv.Profiles
		return inv, nil
	case frameProfile:
		if d.pendingProfiles == 0 {
			return nil, d.fail("profile frame without a pending invocation")
		}
		p, err := d.decodeProfile(&c)
		if err != nil {
			return nil, err
		}
		d.pendingProfiles--
		return p, nil
	case frameHistory:
		if d.historySeen {
			return nil, d.fail("second history frame")
		}
		m := &HistoryMeta{Total: c.uvarint(), PhaseChanges: c.uvarint()}
		m.Cap = c.count("history cap", MaxHistoryWindows)
		m.Windows = c.count("history windows", MaxHistoryWindows)
		if err := c.finish("history"); err != nil {
			return nil, err
		}
		d.historySeen = true
		d.pendingWindows = m.Windows
		return m, nil
	case frameWindow:
		if d.pendingWindows == 0 {
			return nil, d.fail("window frame without a pending history section")
		}
		w := &Window{}
		w.Invocation = int(c.zigzag())
		w.Cycles = c.uvarint()
		w.Refs = c.uvarint()
		w.Accesses = c.uvarint()
		w.Misses = c.uvarint()
		w.WindowMissRatio = c.f64()
		w.CumMissRatio = c.f64()
		w.Delinquent = int(c.zigzag())
		w.NewDelinquent = int(c.zigzag())
		w.DelinquentHash = c.u64()
		w.Jaccard = c.f64()
		w.PhaseChange = c.bool()
		w.StridedLoads = int(c.zigzag())
		w.TopStride = c.zigzag()
		w.WSLines = int(c.zigzag())
		if err := c.finish("window"); err != nil {
			return nil, err
		}
		d.pendingWindows--
		return w, nil
	case frameTrailer:
		t := &Trailer{}
		if d.version >= Version2 {
			t.Shard = Manifest{ShardID: c.uvarint(), Frames: c.uvarint(), Checksum: c.u64()}
		}
		t.InstrumentEvents = c.uvarint()
		t.GuestCycles = c.uvarint()
		t.TotalCycles = c.uvarint()
		t.Instrs = c.uvarint()
		t.HWAccesses = c.uvarint()
		t.HWMisses = c.uvarint()
		t.HWEvictions = c.uvarint()
		t.CandidatePCs = c.pcSet("candidate")
		t.TracePCs = c.pcSet("trace")
		if err := c.finish("trailer"); err != nil {
			return nil, err
		}
		// The manifest must agree with what was actually observed — a
		// checksum mismatch means frames were corrupted or substituted in a
		// way the per-frame parsing did not catch.
		if d.version >= Version2 {
			if t.Shard.Frames != d.frames-1 {
				return nil, d.fail("shard manifest declares %d frames, observed %d", t.Shard.Frames, d.frames-1)
			}
			if t.Shard.Checksum != d.chk {
				return nil, d.fail("shard manifest checksum %#016x != observed %#016x", t.Shard.Checksum, d.chk)
			}
		}
		// The trailer must be the last thing in the stream.
		if _, err := d.r.ReadByte(); err == nil {
			return nil, d.fail("trailing bytes after trailer")
		} else if !errors.Is(err, io.EOF) {
			return nil, d.failTruncated("after trailer", err)
		}
		d.done = true
		return t, nil
	case frameHeader:
		return nil, d.fail("second header frame")
	default:
		return nil, d.fail("unknown frame type 0x%02x", typ)
	}
}

// maxFreeCells bounds how many handed-back cell buffers the decoder
// keeps, so a caller handing back more than it decodes cannot grow the
// list: a replay decodes into one or two at a time.
const maxFreeCells = 8

// Recycle hands a decoded profile's Cells back once the caller is done
// with them: a later profile record may decode into the buffer. The
// caller must not touch it afterwards.
func (d *Decoder) Recycle(cells []uint64) {
	if len(d.free) < maxFreeCells {
		d.free = append(d.free, cells)
	}
}

// cells returns a buffer of n cells: a handed-back one with room for n
// when there is one, else a fresh one. The caller writes every cell.
func (d *Decoder) cells(n int) []uint64 {
	for i := len(d.free) - 1; i >= 0; i-- {
		if b := d.free[i]; cap(b) >= n {
			last := len(d.free) - 1
			d.free[i], d.free[last] = d.free[last], nil
			d.free = d.free[:last]
			return b[:n]
		}
	}
	return make([]uint64, n)
}

// readFrame reads one frame header and its payload into the reusable
// buffer, inflating coded v2 frames, and rolls the manifest checksum over
// the on-wire bytes of every non-trailer frame.
func (d *Decoder) readFrame() (byte, []byte, error) {
	typ, err := d.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			// Clean EOF between frames is still an invalid stream: only a
			// trailer ends one. Report it as truncation.
			return 0, nil, d.failTruncated("frame type", io.ErrUnexpectedEOF)
		}
		return 0, nil, d.failTruncated("frame type", err)
	}
	d.fhdr = append(d.fhdr[:0], typ)
	payload, err := d.readFrameBody(typ)
	if err != nil {
		return 0, nil, err
	}
	if typ != frameTrailer {
		d.chk = fnvUpdate(fnvUpdate(d.chk, d.fhdr), d.buf)
	}
	d.frames++
	d.bytes += uint64(len(d.fhdr)) + uint64(len(d.buf))
	return typ, payload, nil
}

// readFrameBody reads the length fields and on-wire payload (into d.buf)
// of one frame whose type byte is already consumed, returning the raw
// payload — d.buf itself for stored frames, the inflated d.raw for coded
// ones.
func (d *Decoder) readFrameBody(typ byte) ([]byte, error) {
	method := byte(methodStored)
	if d.version >= Version2 {
		m, err := d.r.ReadByte()
		if err != nil {
			return nil, d.failTruncated("frame method", err)
		}
		d.fhdr = append(d.fhdr, m)
		if m != methodStored && m != methodCoded {
			return nil, d.fail("frame type 0x%02x has unknown method 0x%02x", typ, m)
		}
		if m == methodCoded && d.codec != CodecFlate {
			return nil, d.fail("coded frame in a stored-codec stream")
		}
		method = m
	}
	rawLen := uint64(0)
	if method == methodCoded {
		n, err := d.frameUvarint()
		if err != nil {
			return nil, d.failTruncated("frame raw length", err)
		}
		if n > MaxFramePayload {
			return nil, d.fail("frame type 0x%02x raw payload %d exceeds MaxFramePayload %d", typ, n, MaxFramePayload)
		}
		rawLen = n
	}
	n, err := d.frameUvarint()
	if err != nil {
		return nil, d.failTruncated("frame length", err)
	}
	if n > MaxFramePayload {
		return nil, d.fail("frame type 0x%02x payload %d exceeds MaxFramePayload %d", typ, n, MaxFramePayload)
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return nil, d.failTruncated("frame payload", err)
	}
	if method == methodStored {
		return d.buf, nil
	}
	return d.inflate(typ, rawLen)
}

// inflate decodes the coded payload sitting in d.buf into d.raw, which
// must inflate to exactly the declared raw length. Inflation failures are
// content corruption, never ErrTruncated: the on-wire frame arrived
// whole.
func (d *Decoder) inflate(typ byte, rawLen uint64) ([]byte, error) {
	if d.fr == nil {
		d.br = bytes.NewReader(nil)
		d.fr = flate.NewReader(d.br)
	}
	d.br.Reset(d.buf)
	if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
		return nil, d.fail("frame type 0x%02x inflate reset: %v", typ, err)
	}
	if uint64(cap(d.raw)) < rawLen {
		d.raw = make([]byte, rawLen)
	}
	d.raw = d.raw[:rawLen]
	if _, err := io.ReadFull(d.fr, d.raw); err != nil {
		return nil, d.fail("frame type 0x%02x inflate: %v", typ, err)
	}
	var one [1]byte
	if n, err := d.fr.Read(one[:]); n != 0 || !errors.Is(err, io.EOF) {
		return nil, d.fail("frame type 0x%02x inflates past its declared %d raw bytes", typ, rawLen)
	}
	return d.raw, nil
}

// frameUvarint reads one frame-header uvarint, recording the consumed
// bytes into d.fhdr so the rolling checksum covers the wire exactly.
func (d *Decoder) frameUvarint() (uint64, error) {
	v, rec, err := readUvarint(d.r, d.fhdr)
	d.fhdr = rec
	return v, err
}

// decodeProfile parses a profile payload, allocating cells only after the
// declared geometry passes the hard caps and a payload-size plausibility
// check (every encoded cell is at least one byte), so a hostile frame
// cannot demand memory disproportionate to its own size beyond the fixed
// per-profile cap.
func (d *Decoder) decodeProfile(c *cursor) (*Profile, error) {
	p := &Profile{Alpha: c.f64()}
	nops := c.count("profile ops", MaxProfileOps)
	if d.err != nil {
		return nil, d.err
	}
	if nops == 0 {
		return nil, d.fail("profile has zero ops")
	}
	p.PCs = make([]uint64, nops)
	p.PCs[0] = c.uvarint()
	for i := 1; i < nops; i++ {
		p.PCs[i] = p.PCs[i-1] + uint64(c.zigzag())
	}
	p.IsLoad = c.bitmapBools(nops)
	p.Rows = c.count("profile rows", MaxProfileRows)
	if d.err != nil {
		return nil, d.err
	}
	if p.Rows == 0 {
		return nil, d.fail("profile has zero rows")
	}
	ncells := p.Rows * nops
	if ncells > MaxProfileCells {
		return nil, d.fail("profile %d cells exceeds MaxProfileCells %d", ncells, MaxProfileCells)
	}
	recorded := c.count("profile recorded", MaxProfileCells)
	if d.err != nil {
		return nil, d.err
	}
	if recorded > ncells {
		return nil, d.fail("profile recorded %d exceeds cells %d", recorded, ncells)
	}
	p.Recorded = recorded
	// v2 cell prediction state: the per-column predictor list rides in
	// the frame (0 = previous recorded cell in the same column, i+1 =
	// the same row's column i, which must be an earlier column), and
	// each column's predecessor is seeded from the stream-persistent
	// per-PC map — the exact inverse of Encoder.cellsV2.
	var pred []int
	var colPrev []uint64
	if d.version >= Version2 {
		if d.cellPrev == nil {
			d.cellPrev = make(map[uint64]uint64)
		}
		d.pred = slices.Grow(d.pred[:0], nops)[:nops]
		pred = d.pred
		for j := range pred {
			pred[j] = c.count("profile cell predictor", j)
		}
		if d.err != nil {
			return nil, d.err
		}
		d.colPrev = slices.Grow(d.colPrev[:0], nops)[:nops]
		colPrev = d.colPrev
		for j := range colPrev {
			colPrev[j] = d.cellPrev[p.PCs[j]]
		}
	}
	cell := func(i int) uint64 {
		if d.version < Version2 {
			return c.uvarint()
		}
		j := i % nops
		base := colPrev[j]
		if pr := pred[j]; pr > 0 {
			if ref := p.Cells[i-j+(pr-1)]; ref != NoCell {
				base = ref
			}
		}
		v := base + uint64(c.zigzag())
		colPrev[j] = v
		return v
	}
	if recorded == ncells { // dense
		if c.remaining() < ncells {
			return nil, d.fail("profile payload too short for %d dense cells", ncells)
		}
		p.Cells = d.cells(ncells)
		for i := range p.Cells {
			v := cell(i)
			if v == NoCell {
				return nil, d.fail("profile cell %d holds the NoCell sentinel", i)
			}
			p.Cells[i] = v
		}
	} else {
		bitmapLen := (ncells + 7) / 8
		if c.remaining() < bitmapLen+recorded {
			return nil, d.fail("profile payload too short for %d sparse cells", recorded)
		}
		bitmap := c.bytes(bitmapLen)
		if d.err != nil {
			return nil, d.err
		}
		if popcount(bitmap) != recorded {
			return nil, d.fail("profile presence bitmap popcount != recorded %d", recorded)
		}
		if trailingBitsSet(bitmap, ncells) {
			return nil, d.fail("profile presence bitmap has bits set past cell %d", ncells)
		}
		p.Cells = d.cells(ncells)
		for i := range p.Cells {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				v := cell(i)
				if v == NoCell {
					return nil, d.fail("profile cell %d holds the NoCell sentinel", i)
				}
				p.Cells[i] = v
			} else {
				p.Cells[i] = NoCell
			}
		}
	}
	if d.version >= Version2 {
		for j := 0; j < nops; j++ {
			d.cellPrev[p.PCs[j]] = colPrev[j]
		}
	}
	if err := c.finish("profile"); err != nil {
		return nil, err
	}
	return p, nil
}

// readUvarint is binary.ReadUvarint plus the consumed bytes appended to
// rec, so the decoder's Bytes accounting and rolling checksum cover the
// wire exactly (including non-canonical encodings, which hash as read).
func readUvarint(r *bufio.Reader, rec []byte) (uint64, []byte, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, rec, err
		}
		rec = append(rec, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, rec, errors.New("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, rec, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, rec, errors.New("uvarint too long")
}

func popcount(b []byte) int {
	n := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

func trailingBitsSet(bitmap []byte, nbits int) bool {
	for i := nbits; i < len(bitmap)*8; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			return true
		}
	}
	return false
}

// cursor parses scalars out of one frame payload, reporting the first
// error through the decoder's sticky error (subsequent reads yield
// zeros, so straight-line parse code needs only one check at the end).
type cursor struct {
	d   *Decoder
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) uvarint() uint64 {
	if c.d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.d.fail("truncated or overlong uvarint at payload offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) zigzag() int64 { return unzigzag(c.uvarint()) }

// count reads a uvarint that must fit the given cap (and the int type).
func (c *cursor) count(what string, max int) int {
	v := c.uvarint()
	if c.d.err != nil {
		return 0
	}
	if v > uint64(max) {
		c.d.fail("%s %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

func (c *cursor) byte() uint8 {
	if c.d.err != nil {
		return 0
	}
	if c.remaining() < 1 {
		c.d.fail("truncated byte at payload offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) bool() bool {
	switch c.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		if c.d.err == nil {
			c.d.fail("bool byte not 0 or 1 at payload offset %d", c.off-1)
		}
		return false
	}
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) u64() uint64 {
	if c.d.err != nil {
		return 0
	}
	if c.remaining() < 8 {
		c.d.fail("truncated u64 at payload offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.d.err != nil {
		return nil
	}
	if c.remaining() < n {
		c.d.fail("truncated %d-byte field at payload offset %d", n, c.off)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) str() string {
	n := c.count("string length", MaxString)
	return string(c.bytes(n))
}

func (c *cursor) bitmapBools(n int) []bool {
	bitmap := c.bytes((n + 7) / 8)
	if c.d.err != nil {
		return nil
	}
	if trailingBitsSet(bitmap, n) {
		c.d.fail("bool bitmap has bits set past entry %d", n)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// pcSet reads a sorted ascending PC set (count + plain deltas, deltas
// after the first strictly positive).
func (c *cursor) pcSet(what string) []uint64 {
	n := c.count(what+" PC set size", MaxPCSet)
	if c.d.err != nil {
		return nil
	}
	if c.remaining() < n { // each delta is at least one byte
		c.d.fail("%s PC set payload too short for %d entries", what, n)
		return nil
	}
	pcs := make([]uint64, n)
	prev := uint64(0)
	for i := range pcs {
		delta := c.uvarint()
		if c.d.err != nil {
			return nil
		}
		if i > 0 && delta == 0 {
			c.d.fail("%s PC set has a duplicate entry at index %d", what, i)
			return nil
		}
		pc := prev + delta
		if i > 0 && pc < prev { // wraparound
			c.d.fail("%s PC set delta overflows at index %d", what, i)
			return nil
		}
		pcs[i] = pc
		prev = pc
	}
	return pcs
}

// finish asserts the payload was fully consumed.
func (c *cursor) finish(what string) error {
	if c.d.err != nil {
		return c.d.err
	}
	if c.off != len(c.b) {
		return c.d.fail("%s frame has %d unconsumed payload bytes", what, len(c.b)-c.off)
	}
	return nil
}
