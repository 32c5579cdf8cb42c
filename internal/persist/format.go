package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// Snapshot format, version 1. All integers are little-endian.
//
//	[0:8)    magic "GSPSNAP1"
//	[8:12)   u32 format version (1)
//	[12:16)  u32 section count C
//	16 + 32i  per-section table entry i: u32 id, u32 reserved,
//	          u64 offset, u64 length, u64 FNV-1a digest of the payload
//	16 + 32C  u64 header digest (FNV-1a of everything before it)
//	...      section payloads at their table offsets
//
// The header digest makes the table itself tamper-evident, and doubles as
// the snapshot's identity: the WAL header stores the digest of the whole
// snapshot file, binding log to state. Unknown format versions are
// rejected with ErrUnsupportedVersion before the table is trusted;
// everything else that fails to parse wraps core.ErrCorruptState and
// names the offending section.

const snapVersion = 1

var snapMagic = [8]byte{'G', 'S', 'P', 'S', 'N', 'A', 'P', '1'}

// Section ids. The meta section is mandatory; the rest are present per
// mode (see snapSections). Unknown ids in a version-1 file are a corruption.
const (
	secMeta    = 1
	secPoints  = 2
	secMatrix  = 3
	secGraph   = 4
	secIDSpace = 5
	secEdges   = 6
	secHist    = 7
	secBounds  = 8
	secHubs    = 9
)

var sectionNames = map[uint32]string{
	secMeta:    "meta",
	secPoints:  "points",
	secMatrix:  "matrix",
	secGraph:   "graph",
	secIDSpace: "idspace",
	secEdges:   "edges",
	secHist:    "histogram",
	secBounds:  "bounds",
	secHubs:    "hubs",
}

// maxDecodeElems bounds every element count a decoder trusts before
// allocating (stable-id capacity, vertex count, hub count, ...): a fuzzed
// or corrupted header must not be able to demand an allocation unrelated
// to the input's size. Real states beyond this need a format bump.
const maxDecodeElems = 1 << 21

// ErrUnsupportedVersion reports a snapshot or WAL whose format version
// this build does not understand.
var ErrUnsupportedVersion = errors.New("persist: unsupported format version")

// ErrNoState reports a directory with no snapshot to recover from.
var ErrNoState = errors.New("persist: no snapshot found")

// ErrSimulatedCrash reports that an injected crash hook fired (see Hooks);
// the Durable is dead and the directory holds the crash point's surviving
// disk state.
var ErrSimulatedCrash = errors.New("persist: simulated crash injected")

// corruptf builds a decode/validation error wrapping core.ErrCorruptState.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("persist: "+format+": %w", append(args, core.ErrCorruptState)...)
}

// The FNV-1a 64 offset basis and prime.
const (
	fnvBasis = 1469598103934665603
	fnvPrime = 1099511628211
)

// fnv1a is the repo's standard FNV-1a 64 digest over raw bytes.
func fnv1a(b []byte) uint64 { return fnv1aFrom(fnvBasis, b) }

// fnv1aFrom continues the FNV-1a state h over b.
func fnv1aFrom(h uint64, b []byte) uint64 {
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime
	}
	return h
}

// fnv1aBoth continues the state h over b and digests b alone, two states
// in one loop: the decoder's pass over a section payload also advances
// the whole-file digest.
func fnv1aBoth(h uint64, b []byte) (cont, own uint64) {
	own = fnvBasis
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime
		own ^= uint64(x)
		own *= fnvPrime
	}
	return h, own
}

// SnapshotDigest is the identity digest of an encoded snapshot, stored in
// the bound WAL's header: FNV-1a over the whole file. Create and
// Checkpoint take it from the encoder's write pass, and Open from the
// decoder's pass, rather than hashing the file a second time.
func SnapshotDigest(data []byte) uint64 { return fnv1a(data) }

// encChunk is the staging size of a streaming encoder (see buf).
const encChunk = 4 << 10

// buf is the little-endian encoder. Without a sink it appends to b (WAL
// headers and records). With one, b is a fixed chunk that goes to the
// sink whenever the next value would not fit, so a snapshot of any size
// streams through encChunk bytes.
type buf struct {
	b    []byte
	sink func([]byte)
}

// room makes space for k more bytes, spilling a streaming encoder's chunk.
func (w *buf) room(k int) {
	if w.sink != nil && len(w.b)+k > cap(w.b) {
		w.flush()
	}
}

// flush hands the staged bytes to the sink.
func (w *buf) flush() {
	w.sink(w.b)
	w.b = w.b[:0]
}

func (w *buf) u8(v uint8) { w.room(1); w.b = append(w.b, v) }
func (w *buf) u32(v uint32) {
	w.room(4)
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *buf) u64(v uint64) {
	w.room(8)
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *buf) f64(v float64) { w.u64(math.Float64bits(v)) }

// run reserves room for up to k values of width bytes each, no more than
// fit in a streaming encoder's chunk, and returns the reserved bytes.
func (w *buf) run(k, width int) []byte {
	w.room(width)
	if w.sink != nil {
		k = min(k, (cap(w.b)-len(w.b))/width)
	}
	n := len(w.b)
	w.b = slices.Grow(w.b, k*width)[:n+k*width]
	return w.b[n:]
}

// u16s and f64s emit a whole slice, a chunk's worth per room check: the
// bound rows, coordinates and hub arrays that make up most of a snapshot.
func (w *buf) u16s(xs []uint16) {
	for len(xs) > 0 {
		dst := w.run(len(xs), 2)
		for i := range len(dst) / 2 {
			binary.LittleEndian.PutUint16(dst[2*i:], xs[i])
		}
		xs = xs[len(dst)/2:]
	}
}

func (w *buf) f64s(xs []float64) {
	for len(xs) > 0 {
		dst := w.run(len(xs), 8)
		for i := range len(dst) / 8 {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(xs[i]))
		}
		xs = xs[len(dst)/8:]
	}
}

// rdr is the bounds-checked little-endian decoder over one section
// payload; the first short read poisons it and every later read fails.
type rdr struct {
	b    []byte
	pos  int
	sec  string
	fail error
}

func (r *rdr) errTruncated() error {
	if r.fail == nil {
		r.fail = corruptf("section %s truncated at byte %d", r.sec, r.pos)
	}
	return r.fail
}

func (r *rdr) take(n int) []byte {
	if r.fail != nil || n < 0 || r.pos+n > len(r.b) {
		r.errTruncated()
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *rdr) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rdr) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *rdr) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *rdr) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *rdr) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an element count and checks it against the global ceiling
// and the bytes actually remaining (each element needs at least per
// bytes), so no corrupted count can demand an out-of-proportion
// allocation.
func (r *rdr) count(what string, per int) (int, error) {
	v := r.u64()
	if r.fail != nil {
		return 0, r.fail
	}
	if v > maxDecodeElems {
		r.fail = corruptf("section %s: %s count %d exceeds limit %d", r.sec, what, v, maxDecodeElems)
		return 0, r.fail
	}
	n := int(v)
	if per > 0 && n > (len(r.b)-r.pos)/per {
		r.fail = corruptf("section %s: %s count %d exceeds remaining payload", r.sec, what, n)
		return 0, r.fail
	}
	return n, nil
}

// done checks the payload was consumed exactly; trailing garbage in a
// digested section means the writer and reader disagree on the format.
func (r *rdr) done() error {
	if r.fail != nil {
		return r.fail
	}
	if r.pos != len(r.b) {
		return corruptf("section %s has %d trailing bytes", r.sec, len(r.b)-r.pos)
	}
	return nil
}

// snapMeta is the decoded meta section: everything scalar about the
// state, plus the WAL op sequence number the snapshot was taken at.
type snapMeta struct {
	graphMode  bool
	metricKind core.MetricKind
	policy     core.IncrementalPolicy
	t          float64
	opSeq      uint64
	capN       int
	liveN      int
	dim        int
	graphN     int
	examined   int
	weight     float64
	hubEpoch   int
	hubsResel  int
}

// EncodeSnapshot serializes an exported state (with the WAL position
// opSeq it corresponds to) into the version-1 snapshot format, in memory.
// It is the streaming encoder that Save, Create and Checkpoint write
// files with, run into a buffer: a digest pass emits every section into
// an FNV-1a sink for the table's lengths and digests, and a write pass
// emits the header, the table, the header digest and the payloads.
// Encoding is deterministic: the same state always produces the same
// bytes, which is what lets golden files guard format drift
// byte-for-byte.
func EncodeSnapshot(st *core.SpannerState, opSeq uint64) []byte {
	enc := newSnapEncoder(st, opSeq)
	var b bytes.Buffer
	b.Grow(int(enc.size))
	enc.writeTo(&b) // a bytes.Buffer never fails a write
	return b.Bytes()
}

// snapSection is one section of a snapshot: its id, the function that
// emits its payload, and the payload's length and FNV-1a digest, which
// the digest pass fills in.
type snapSection struct {
	id             uint32
	emit           func(w *buf)
	length, digest uint64
}

// snapEncoder streams one state's snapshot in two passes over the same
// section emitters, so no pass holds more than a chunk of the encoding.
type snapEncoder struct {
	secs   []snapSection
	size   int64  // the encoded file's length
	digest uint64 // SnapshotDigest of the file, set by writeTo
}

// newSnapEncoder prepares st's snapshot at opSeq and runs the digest
// pass: each section's payload goes into an FNV-1a sink, which yields its
// length and digest for the table.
func newSnapEncoder(st *core.SpannerState, opSeq uint64) *snapEncoder {
	e := &snapEncoder{secs: snapSections(st, opSeq)}
	e.size = int64(16 + 32*len(e.secs) + 8)
	var n, h uint64
	w := &buf{b: make([]byte, 0, encChunk), sink: func(p []byte) {
		n += uint64(len(p))
		h = fnv1aFrom(h, p)
	}}
	for i := range e.secs {
		s := &e.secs[i]
		n, h = 0, fnvBasis
		s.emit(w)
		w.flush()
		s.length, s.digest = n, h
		e.size += int64(n)
	}
	return e
}

// writeTo is the write pass: the header, the table, the header digest and
// the payloads go to out, and the running FNV-1a over them becomes
// e.digest, the value the bound WAL's header stores.
func (e *snapEncoder) writeTo(out io.Writer) error {
	h := uint64(fnvBasis)
	var err error
	w := &buf{b: make([]byte, 0, encChunk), sink: func(p []byte) {
		h = fnv1aFrom(h, p)
		if err == nil {
			_, err = out.Write(p)
		}
	}}
	for _, c := range snapMagic {
		w.u8(c)
	}
	w.u32(snapVersion)
	w.u32(uint32(len(e.secs)))
	off := uint64(16 + 32*len(e.secs) + 8)
	for _, s := range e.secs {
		w.u32(s.id)
		w.u32(0)
		w.u64(off)
		w.u64(s.length)
		w.u64(s.digest)
		off += s.length
	}
	w.flush()
	w.u64(h) // the header digest: FNV-1a of everything before it
	for _, s := range e.secs {
		s.emit(w)
	}
	w.flush()
	e.digest = h
	return err
}

// snapSections lists st's sections in file order, each with the emitter
// of its payload. The meta and edges sections are always present; the
// rest depend on the mode, and hubs on the oracle being on.
func snapSections(st *core.SpannerState, opSeq uint64) []snapSection {
	secs := []snapSection{{id: secMeta, emit: func(w *buf) {
		w.u8(boolByte(st.GraphMode))
		w.u8(uint8(st.MetricKind))
		w.u8(boolByte(st.Policy.CoalesceUntilQuery))
		w.u64(uint64(st.Policy.MinBatch))
		w.f64(st.T)
		w.u64(opSeq)
		w.u64(uint64(st.Cap))
		w.u64(uint64(len(st.Live)))
		w.u64(uint64(st.Dim))
		w.u64(uint64(st.GraphN))
		w.u64(uint64(st.EdgesExamined))
		w.f64(st.Weight)
		w.u64(uint64(st.HubEpoch))
		w.u64(uint64(st.HubsReselected))
	}}, {id: secEdges, emit: func(w *buf) { emitEdgeList(w, st.Edges) }}}
	add := func(id uint32, emit func(w *buf)) { secs = append(secs, snapSection{id: id, emit: emit}) }

	if st.GraphMode {
		add(secGraph, func(w *buf) { emitEdgeList(w, st.GraphEdges) })
	} else {
		add(secIDSpace, func(w *buf) {
			for _, sid := range st.Live {
				w.u64(uint64(sid))
			}
		})
		if st.MetricKind == core.MetricEuclidean {
			add(secPoints, func(w *buf) { w.f64s(st.Coords) })
		} else {
			add(secMatrix, func(w *buf) { w.f64s(st.Matrix) })
		}
		add(secHist, func(w *buf) {
			w.u64(uint64(len(st.HistExp)))
			for i, e := range st.HistExp {
				w.u32(uint32(e))
				w.u64(uint64(st.HistCount[i]))
			}
			w.u64(uint64(st.HistZeros))
			w.u64(uint64(st.HistInfs))
		})
		add(secBounds, func(w *buf) {
			for _, ep := range st.BoundEpochs {
				w.u64(uint64(ep))
			}
			materialized := 0
			for _, row := range st.BoundRows {
				if row != nil {
					materialized++
				}
			}
			w.u64(uint64(materialized))
			for u, row := range st.BoundRows {
				if row == nil {
					continue
				}
				w.u64(uint64(u))
				w.u16s(row)
			}
		})
	}

	if len(st.Hubs) > 0 {
		add(secHubs, func(w *buf) {
			w.u64(uint64(len(st.Hubs)))
			for _, h := range st.Hubs {
				w.u64(uint64(h))
			}
			for _, row := range st.HubRows {
				w.f64s(row)
			}
		})
	}
	return secs
}

// emitEdgeList writes a u64-counted edge list (u, v, weight bits), the
// shape decodeEdgeList reads.
func emitEdgeList(w *buf, edges []graph.Edge) {
	w.u64(uint64(len(edges)))
	for _, e := range edges {
		w.u64(uint64(e.U))
		w.u64(uint64(e.V))
		w.f64(e.W)
	}
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// DecodeSnapshot parses and digest-verifies a version-1 snapshot,
// returning the state and the WAL op sequence it was taken at. Arbitrary
// input bytes produce a typed error — ErrUnsupportedVersion for a foreign
// version, otherwise an error wrapping core.ErrCorruptState naming the
// offending section — never a panic or an allocation out of proportion to
// the input. The returned state is structurally plausible but not deeply
// validated; core.ImportIncremental owns semantic validation.
func DecodeSnapshot(data []byte) (*core.SpannerState, uint64, error) {
	st, opSeq, _, err := decodeSnapshot(data)
	return st, opSeq, err
}

// decodeSnapshot is DecodeSnapshot that also returns SnapshotDigest(data),
// computed in the pass that verifies the header and section digests: the
// header digest is the whole-file state after the table, and each
// section laid out right after the previous one advances it while its own
// digest is checked. Only a file whose sections are out of order or
// overlap (never an encoded one) is hashed whole a second time.
func decodeSnapshot(data []byte) (*core.SpannerState, uint64, uint64, error) {
	if len(data) < 16 {
		return nil, 0, 0, corruptf("snapshot header truncated (%d bytes)", len(data))
	}
	var magic [8]byte
	copy(magic[:], data[:8])
	if magic != snapMagic {
		return nil, 0, 0, corruptf("bad snapshot magic %q", string(magic[:]))
	}
	version := leU32(data[8:])
	if version != snapVersion {
		return nil, 0, 0, fmt.Errorf("persist: snapshot format version %d (this build reads %d): %w", version, snapVersion, ErrUnsupportedVersion)
	}
	nsec := leU32(data[12:])
	if nsec > uint32(len(data)/32) {
		return nil, 0, 0, corruptf("section table of %d entries exceeds file size", nsec)
	}
	tableEnd := 16 + 32*int(nsec)
	if tableEnd+8 > len(data) {
		return nil, 0, 0, corruptf("section table truncated")
	}
	digest := fnv1a(data[:tableEnd])
	if leU64(data[tableEnd:]) != digest {
		return nil, 0, 0, corruptf("header digest mismatch")
	}
	digest = fnv1aFrom(digest, data[tableEnd:tableEnd+8])
	// next is where the whole-file digest has reached; 0 once a section
	// breaks the in-order layout.
	next := uint64(tableEnd + 8)
	sections := make(map[uint32][]byte, nsec)
	for i := 0; i < int(nsec); i++ {
		ent := data[16+32*i:]
		id := leU32(ent)
		name := sectionNames[id]
		if name == "" {
			return nil, 0, 0, corruptf("unknown section id %d", id)
		}
		if _, dup := sections[id]; dup {
			return nil, 0, 0, corruptf("section %s listed twice", name)
		}
		off, length := leU64(ent[8:]), leU64(ent[16:])
		if off < uint64(tableEnd+8) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, 0, 0, corruptf("section %s range [%d, +%d) outside file", name, off, length)
		}
		payload := data[off : off+length]
		var own uint64
		if off == next {
			digest, own = fnv1aBoth(digest, payload)
			next = off + length
		} else {
			own, next = fnv1a(payload), 0
		}
		if own != leU64(ent[24:]) {
			return nil, 0, 0, corruptf("section %s digest mismatch", name)
		}
		sections[id] = payload
	}
	if next > 0 {
		digest = fnv1aFrom(digest, data[next:])
	} else {
		digest = fnv1a(data)
	}
	need := func(id uint32) (*rdr, error) {
		p, ok := sections[id]
		if !ok {
			return nil, corruptf("section %s missing", sectionNames[id])
		}
		return &rdr{b: p, sec: sectionNames[id]}, nil
	}

	mr, err := need(secMeta)
	if err != nil {
		return nil, 0, 0, err
	}
	var meta snapMeta
	meta.graphMode = mr.u8() != 0
	meta.metricKind = core.MetricKind(mr.u8())
	meta.policy.CoalesceUntilQuery = mr.u8() != 0
	minBatch := mr.u64()
	meta.t = mr.f64()
	meta.opSeq = mr.u64()
	capN := mr.u64()
	liveN := mr.u64()
	dim := mr.u64()
	graphN := mr.u64()
	examined := mr.u64()
	meta.weight = mr.f64()
	hubEpoch := mr.u64()
	hubsResel := mr.u64()
	if err := mr.done(); err != nil {
		return nil, 0, 0, err
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{{"capacity", capN}, {"live count", liveN}, {"dimension", dim}, {"vertex count", graphN},
		{"min batch", minBatch}, {"hub epoch", hubEpoch}, {"hub reselections", hubsResel}} {
		if c.v > maxDecodeElems {
			return nil, 0, 0, corruptf("section meta: %s %d exceeds limit %d", c.name, c.v, maxDecodeElems)
		}
	}
	if examined > math.MaxInt64/2 {
		return nil, 0, 0, corruptf("section meta: examined count overflows")
	}
	meta.capN, meta.liveN, meta.dim, meta.graphN = int(capN), int(liveN), int(dim), int(graphN)
	meta.examined = int(examined)
	meta.hubEpoch, meta.hubsResel = int(hubEpoch), int(hubsResel)
	meta.policy.MinBatch = int(minBatch)

	st := &core.SpannerState{
		T:              meta.t,
		GraphMode:      meta.graphMode,
		Policy:         meta.policy,
		MetricKind:     meta.metricKind,
		Cap:            meta.capN,
		Dim:            meta.dim,
		GraphN:         meta.graphN,
		Weight:         meta.weight,
		EdgesExamined:  meta.examined,
		HubEpoch:       meta.hubEpoch,
		HubsReselected: meta.hubsResel,
	}

	er, err := need(secEdges)
	if err != nil {
		return nil, 0, 0, err
	}
	if st.Edges, err = decodeEdgeList(er); err != nil {
		return nil, 0, 0, err
	}

	if meta.graphMode {
		gr, err := need(secGraph)
		if err != nil {
			return nil, 0, 0, err
		}
		if st.GraphEdges, err = decodeEdgeList(gr); err != nil {
			return nil, 0, 0, err
		}
	} else {
		if err := decodeMetricSections(st, meta, sections, need); err != nil {
			return nil, 0, 0, err
		}
	}

	if hp, ok := sections[secHubs]; ok {
		hr := &rdr{b: hp, sec: "hubs"}
		rowLen := meta.capN
		if meta.graphMode {
			rowLen = meta.graphN
		}
		k, err := hr.count("hub", 8)
		if err != nil {
			return nil, 0, 0, err
		}
		if k > rowLen {
			// Hubs are distinct vertices. The bound also keeps the rows'
			// headroom below in proportion to the payload.
			return nil, 0, 0, corruptf("section hubs: %d hubs for %d vertices", k, rowLen)
		}
		st.Hubs = make([]int, k)
		for i := range st.Hubs {
			v := hr.u64()
			if v > maxDecodeElems {
				return nil, 0, 0, corruptf("section hubs: hub id %d out of range", v)
			}
			st.Hubs[i] = int(v)
		}
		if k > 0 && (rowLen > (len(hp)-hr.pos)/8/k) {
			return nil, 0, 0, corruptf("section hubs: %d rows of %d entries exceed payload", k, rowLen)
		}
		// Metric-mode hub arrays carry the growth headroom a maintained
		// engine reserves, like the bound rows, so the engine keeps them
		// as decoded (see core.ImportIncremental).
		rowCap := rowLen
		if !meta.graphMode {
			rowCap = core.RowCapacity(rowLen)
		}
		st.HubRows = make([][]float64, k)
		for i := range st.HubRows {
			row := make([]float64, rowLen, rowCap)
			for v := range row {
				row[v] = hr.f64()
			}
			st.HubRows[i] = row
		}
		if err := hr.done(); err != nil {
			return nil, 0, 0, err
		}
	}
	return st, meta.opSeq, digest, nil
}

// decodeMetricSections fills the metric-mode sections: idspace, the point
// payload (coordinates or matrix), the histogram, and the bound store.
func decodeMetricSections(st *core.SpannerState, meta snapMeta, sections map[uint32][]byte, need func(uint32) (*rdr, error)) error {
	ir, err := need(secIDSpace)
	if err != nil {
		return err
	}
	if len(ir.b) != 8*meta.liveN {
		return corruptf("section idspace has %d bytes, want %d live ids", len(ir.b), meta.liveN)
	}
	st.Live = make([]int, meta.liveN)
	for i := range st.Live {
		v := ir.u64()
		if v > maxDecodeElems {
			return corruptf("section idspace: live id %d out of range", v)
		}
		st.Live[i] = int(v)
	}
	if err := ir.done(); err != nil {
		return err
	}

	switch meta.metricKind {
	case core.MetricEuclidean:
		pr, err := need(secPoints)
		if err != nil {
			return err
		}
		if meta.dim == 0 || meta.liveN > len(pr.b)/8/max(meta.dim, 1) {
			return corruptf("section points: %d points x dim %d exceed payload", meta.liveN, meta.dim)
		}
		st.Coords = make([]float64, meta.liveN*meta.dim)
		for i := range st.Coords {
			st.Coords[i] = pr.f64()
		}
		if err := pr.done(); err != nil {
			return err
		}
	default:
		// Any other kind reaches core.ImportIncremental, which rejects
		// unknown kinds; the matrix payload decodes for MetricMatrix.
		mr, err := need(secMatrix)
		if err != nil {
			return err
		}
		if meta.liveN > 0 && meta.liveN > len(mr.b)/8/meta.liveN {
			return corruptf("section matrix: %d x %d entries exceed payload", meta.liveN, meta.liveN)
		}
		st.Matrix = make([]float64, meta.liveN*meta.liveN)
		for i := range st.Matrix {
			st.Matrix[i] = mr.f64()
		}
		if err := mr.done(); err != nil {
			return err
		}
	}

	hr, err := need(secHist)
	if err != nil {
		return err
	}
	nb, err := hr.count("bucket", 12)
	if err != nil {
		return err
	}
	st.HistExp = make([]int32, nb)
	st.HistCount = make([]int64, nb)
	for i := range st.HistExp {
		st.HistExp[i] = int32(hr.u32())
		c := hr.u64()
		if c > math.MaxInt64/2 {
			return corruptf("section histogram: bucket %d count overflows", i)
		}
		st.HistCount[i] = int64(c)
	}
	zeros, infs := hr.u64(), hr.u64()
	if zeros > math.MaxInt64/2 || infs > math.MaxInt64/2 {
		return corruptf("section histogram: tally overflows")
	}
	st.HistZeros, st.HistInfs = int64(zeros), int64(infs)
	if err := hr.done(); err != nil {
		return err
	}

	br, err := need(secBounds)
	if err != nil {
		return err
	}
	if meta.capN > len(br.b)/8 {
		return corruptf("section bounds: %d epochs exceed payload", meta.capN)
	}
	st.BoundEpochs = make([]int, meta.capN)
	for u := range st.BoundEpochs {
		v := br.u64()
		if v > maxDecodeElems {
			return corruptf("section bounds: epoch %d out of range", v)
		}
		st.BoundEpochs[u] = int(v)
	}
	st.BoundRows = make([][]uint16, meta.capN)
	materialized, err := br.count("row", 8)
	if err != nil {
		return err
	}
	for i := 0; i < materialized; i++ {
		u := br.u64()
		if u >= uint64(meta.capN) {
			return corruptf("section bounds: row vertex %d outside capacity %d", u, meta.capN)
		}
		if br.fail == nil && meta.capN > (len(br.b)-br.pos)/2 {
			return corruptf("section bounds: row of %d entries exceeds payload", meta.capN)
		}
		row := make([]uint16, meta.capN, core.RowCapacity(meta.capN))
		for v := range row {
			row[v] = br.u16()
		}
		if br.fail != nil {
			return br.fail
		}
		if st.BoundRows[u] != nil {
			return corruptf("section bounds: row %d listed twice", u)
		}
		st.BoundRows[u] = row
	}
	return br.done()
}

// decodeEdgeList reads a u64-counted edge list (u, v, weight bits).
func decodeEdgeList(r *rdr) ([]graph.Edge, error) {
	n, err := r.count("edge", 24)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		u, v := r.u64(), r.u64()
		w := r.f64()
		if u > maxDecodeElems || v > maxDecodeElems {
			return nil, corruptf("section %s: edge %d endpoints out of range", r.sec, i)
		}
		edges[i] = graph.Edge{U: int(u), V: int(v), W: w}
	}
	return edges, r.done()
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
