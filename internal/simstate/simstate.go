// Package simstate serialises a fully-warmed simulator into a
// versioned, checksummed binary blob and back. The blob captures
// everything that distinguishes a warmed engine from a cold one at the
// warmup/measure boundary — cache recency/residency words, prediction
// table words and counters, predictor/prefetch-filter state and the
// adaptive monitor — so a measure phase branched from a restored snapshot is bit-identical to
// one that simulated the warmup itself (pinned by the golden
// fingerprint suite in internal/sim).
//
// The format is strictly canonical: fixed-width little-endian scalars,
// u32 length prefixes, bools as exactly 0 or 1, field order fixed by
// this package. Decode rejects every non-canonical or truncated form,
// so decode∘encode is the identity on valid blobs and encode∘decode is
// the identity on accepted byte strings (FuzzSnapshotRoundTrip pins
// this). A CRC-64/ECMA of everything before the trailer closes the
// blob; a flipped bit anywhere fails Decode with a "simstate: " error
// rather than restoring a subtly-wrong machine.
//
// Serialisation here is setup/teardown code, never the per-reference
// loop: the hotpath analyzer exempts this package as a whole (see
// analysis.SerializationPackages).
package simstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// blobMagic opens every snapshot blob.
const blobMagic = "RDHPSNAP"

// Version is the current format version. Decode rejects anything else:
// warm state is too entangled with engine internals for cross-version
// restores to be safe, so a version bump simply invalidates old blobs
// (the store treats that as a miss and re-warms).
const Version = 2

// crcTable is the CRC-64/ECMA table used for the blob trailer.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta identifies what a snapshot is a snapshot OF. Restore validates
// it against the caller's configuration before touching any engine
// state: a blob for the wrong geometry, workload, seed lineage or
// scheme is rejected, not silently applied.
type Meta struct {
	// ConfigHash is sim.WarmKey's digest of the canonical warm-relevant
	// configuration (geometry × workload × seed × warmup refs × scheme).
	ConfigHash [32]byte
	// Workload and Scheme are carried redundantly in the clear so a
	// mismatch produces a readable error instead of "hash differs".
	Workload string
	Scheme   string
	// Cores is the geometry's core count; slice lengths below are
	// validated against it.
	Cores uint32
	// WarmupRefs is the per-core warmup length the snapshot absorbed.
	WarmupRefs uint64
}

// CacheState is one cache's warm contents: packed tag/valid words,
// packed per-set recency/FIFO order words, and the replacement RNG
// cursor. Stats are NOT captured — the warmup/measure boundary zeroes
// them, so a restored engine starts from zero exactly like a
// straight-through run does.
type CacheState struct {
	TagV []uint64
	Ord  []uint64
	RNG  uint64
}

// TableState is one prediction table's words plus its lifetime
// counters (lookups/predHits/sets/recals feed PredStats, which the
// measure phase reports as deltas — but recalibration cadence depends
// on the absolute counters, so they are part of the warm state).
type TableState struct {
	Words    []uint64
	Lookups  uint64
	PredHits uint64
	Sets     uint64
	Recals   uint64
}

// MirrorState is the exact-mirror prediction table used when
// RecalPeriod==1.
type MirrorState struct {
	Refs []uint32
}

// CBFState is the counting-Bloom-filter predictor's counters and
// lifetime stats.
type CBFState struct {
	Counters  []uint8
	Lookups   uint64
	Present   uint64
	Saturated uint64
	Underflow uint64
}

// PrefetchEntry mirrors one reference-prediction-table row of a stride
// prefetcher.
type PrefetchEntry struct {
	PC       uint64
	LastAddr uint64
	Stride   int64
	State    uint8
	Valid    bool
}

// PrefetcherState is one core's stride prefetcher table. Issue/useful
// stats reset at the boundary and are not captured.
type PrefetcherState struct {
	Entries []PrefetchEntry
}

// PFSlot is one occupied slot of the engine's direct-mapped
// prefetch-usefulness filter, stored sparsely (slot index ascending).
type PFSlot struct {
	Slot uint32
	Mark uint64
}

// AdaptiveState is the adaptive-disable monitor's warm state.
type AdaptiveState struct {
	On             bool
	Streak         uint64
	EpochRefs      uint64
	EpochStartMiss uint64
	EpochStartTN   uint64
}

// Snapshot is the complete warm state of one engine at the
// warmup/measure boundary.
type Snapshot struct {
	Meta Meta
	// Caches holds every cache in canonical engine order: per-core L1s,
	// per-core L2s, per-core L3s, then the shared L4.
	Caches []CacheState
	// Tables holds core.Table instances in canonical order: the main
	// prediction table (if the scheme has one), then the exclusive-mode
	// shadow tables (exL2 per core, exL3 per core, exL4) when present.
	Tables []TableState
	// Mirror is the RecalPeriod==1 exact mirror, when in use.
	Mirror *MirrorState
	// CBF is the counting-Bloom-filter predictor, when in use.
	CBF *CBFState
	// Prefetchers holds one entry per core when prefetching is enabled.
	Prefetchers []PrefetcherState
	// PFFilter is the sparse occupied-slot list of the prefetch
	// usefulness filter; PFMarks is the engine's count of live marks and
	// must equal len(PFFilter).
	PFFilter []PFSlot
	PFMarks  uint64
	// MissesSinceRecal is the recalibration clock's position.
	MissesSinceRecal uint64
	// Adaptive is the adaptive-disable monitor.
	Adaptive AdaptiveState
	// FNSeen/FNBlock carry the false-negative detector: a warmup that
	// tripped it must fail the restored run exactly like the
	// straight-through run fails.
	FNSeen  bool
	FNBlock uint64
}

// --- encoding ------------------------------------------------------------------

// Encode serialises s into a fresh blob: magic, version, payload,
// CRC-64/ECMA trailer.
func Encode(s *Snapshot) []byte {
	e := &encoder{buf: make([]byte, 0, encodedHint(s))}
	e.raw([]byte(blobMagic))
	e.u32(Version)
	encodePayload(e, s)
	sum := crc64.Checksum(e.buf, crcTable)
	e.u64(sum)
	return e.buf
}

func encodedHint(s *Snapshot) int {
	n := 64 + len(s.Meta.Workload) + len(s.Meta.Scheme)
	for i := range s.Caches {
		n += 8*(len(s.Caches[i].TagV)+len(s.Caches[i].Ord)) + 24
	}
	for i := range s.Tables {
		n += 8*len(s.Tables[i].Words) + 40
	}
	if s.Mirror != nil {
		n += 4 * len(s.Mirror.Refs)
	}
	if s.CBF != nil {
		n += len(s.CBF.Counters) + 40
	}
	n += 26*totalPrefetchEntries(s) + 12*len(s.PFFilter) + 64
	return n
}

func totalPrefetchEntries(s *Snapshot) int {
	n := 0
	for i := range s.Prefetchers {
		n += len(s.Prefetchers[i].Entries)
	}
	return n
}

func encodePayload(e *encoder, s *Snapshot) {
	e.raw(s.Meta.ConfigHash[:])
	e.str(s.Meta.Workload)
	e.str(s.Meta.Scheme)
	e.u32(s.Meta.Cores)
	e.u64(s.Meta.WarmupRefs)

	e.u32(uint32(len(s.Caches)))
	for i := range s.Caches {
		c := &s.Caches[i]
		e.u64s(c.TagV)
		e.u64s(c.Ord)
		e.u64(c.RNG)
	}
	e.u32(uint32(len(s.Tables)))
	for i := range s.Tables {
		t := &s.Tables[i]
		e.u64s(t.Words)
		e.u64(t.Lookups)
		e.u64(t.PredHits)
		e.u64(t.Sets)
		e.u64(t.Recals)
	}
	e.bool(s.Mirror != nil)
	if s.Mirror != nil {
		e.u32s(s.Mirror.Refs)
	}
	e.bool(s.CBF != nil)
	if s.CBF != nil {
		e.u8s(s.CBF.Counters)
		e.u64(s.CBF.Lookups)
		e.u64(s.CBF.Present)
		e.u64(s.CBF.Saturated)
		e.u64(s.CBF.Underflow)
	}
	e.u32(uint32(len(s.Prefetchers)))
	for i := range s.Prefetchers {
		ents := s.Prefetchers[i].Entries
		e.u32(uint32(len(ents)))
		for j := range ents {
			en := &ents[j]
			e.u64(en.PC)
			e.u64(en.LastAddr)
			e.u64(uint64(en.Stride))
			e.u8(en.State)
			e.bool(en.Valid)
		}
	}
	e.u32(uint32(len(s.PFFilter)))
	for i := range s.PFFilter {
		e.u32(s.PFFilter[i].Slot)
		e.u64(s.PFFilter[i].Mark)
	}
	e.u64(s.PFMarks)
	e.u64(s.MissesSinceRecal)
	e.bool(s.Adaptive.On)
	e.u64(s.Adaptive.Streak)
	e.u64(s.Adaptive.EpochRefs)
	e.u64(s.Adaptive.EpochStartMiss)
	e.u64(s.Adaptive.EpochStartTN)
	e.bool(s.FNSeen)
	e.u64(s.FNBlock)
}

// Decode parses a blob back into a Snapshot. It is strict: bad magic,
// unknown version, checksum mismatch, truncation, trailing bytes and
// non-canonical encodings (a bool byte other than 0/1) all fail with a
// "simstate: "-prefixed error.
func Decode(data []byte) (*Snapshot, error) {
	const trailer = 8
	header := len(blobMagic) + 4
	if len(data) < header+trailer {
		return nil, errors.New("simstate: blob too short")
	}
	if string(data[:len(blobMagic)]) != blobMagic {
		return nil, errors.New("simstate: bad magic")
	}
	body, tail := data[:len(data)-trailer], data[len(data)-trailer:]
	if got, want := binary.LittleEndian.Uint64(tail), crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("simstate: checksum mismatch (blob corrupt): got %#x want %#x", got, want)
	}
	d := &decoder{buf: body, off: len(blobMagic)}
	if v := d.u32(); d.err == nil && v != Version {
		return nil, fmt.Errorf("simstate: unsupported snapshot version %d (want %d)", v, Version)
	}
	s := decodePayload(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("simstate: %d trailing payload bytes", len(d.buf)-d.off)
	}
	return s, nil
}

func decodePayload(d *decoder) *Snapshot {
	s := &Snapshot{}
	d.raw(s.Meta.ConfigHash[:])
	s.Meta.Workload = d.str()
	s.Meta.Scheme = d.str()
	s.Meta.Cores = d.u32()
	s.Meta.WarmupRefs = d.u64()

	if n := d.count(24); n > 0 {
		s.Caches = make([]CacheState, n)
		for i := range s.Caches {
			c := &s.Caches[i]
			c.TagV = d.u64s()
			c.Ord = d.u64s()
			c.RNG = d.u64()
		}
	}
	if n := d.count(40); n > 0 {
		s.Tables = make([]TableState, n)
		for i := range s.Tables {
			t := &s.Tables[i]
			t.Words = d.u64s()
			t.Lookups = d.u64()
			t.PredHits = d.u64()
			t.Sets = d.u64()
			t.Recals = d.u64()
		}
	}
	if d.bool() {
		s.Mirror = &MirrorState{Refs: d.u32s()}
	}
	if d.bool() {
		s.CBF = &CBFState{
			Counters:  d.u8s(),
			Lookups:   d.u64(),
			Present:   d.u64(),
			Saturated: d.u64(),
			Underflow: d.u64(),
		}
	}
	if n := d.count(4); n > 0 {
		s.Prefetchers = make([]PrefetcherState, n)
		for i := range s.Prefetchers {
			if m := d.count(26); m > 0 {
				ents := make([]PrefetchEntry, m)
				for j := range ents {
					en := &ents[j]
					en.PC = d.u64()
					en.LastAddr = d.u64()
					en.Stride = int64(d.u64())
					en.State = d.u8()
					en.Valid = d.bool()
				}
				s.Prefetchers[i].Entries = ents
			}
		}
	}
	if n := d.count(12); n > 0 {
		s.PFFilter = make([]PFSlot, n)
		for i := range s.PFFilter {
			s.PFFilter[i].Slot = d.u32()
			s.PFFilter[i].Mark = d.u64()
		}
	}
	s.PFMarks = d.u64()
	s.MissesSinceRecal = d.u64()
	s.Adaptive.On = d.bool()
	s.Adaptive.Streak = d.u64()
	s.Adaptive.EpochRefs = d.u64()
	s.Adaptive.EpochStartMiss = d.u64()
	s.Adaptive.EpochStartTN = d.u64()
	s.FNSeen = d.bool()
	s.FNBlock = d.u64()
	return s
}

// --- wire primitives -----------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) u64s(v []uint64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) u32s(v []uint32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(x)
	}
}

func (e *encoder) u8s(v []uint8) {
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// decoder reads the canonical wire form. The first failure latches err
// and turns every later read into a zero-value no-op, so decode code
// reads straight through and checks err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("simstate: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("truncated snapshot (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) raw(dst []byte) {
	if b := d.take(len(dst)); b != nil {
		copy(dst, b)
	}
}

func (d *decoder) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical bool encoding")
		return false
	}
}

// count reads a u32 element count and bounds it against the bytes
// remaining (elemSize = minimum wire bytes per element), so a
// hostile length prefix cannot force a huge allocation.
func (d *decoder) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > len(d.buf)-d.off {
		d.fail("length prefix %d exceeds remaining payload", n)
		return 0
	}
	return n
}

func (d *decoder) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func (d *decoder) u64s() []uint64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.u64()
	}
	return v
}

func (d *decoder) u32s() []uint32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = d.u32()
	}
	return v
}

func (d *decoder) u8s() []uint8 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make([]uint8, n)
	copy(v, d.take(n))
	return v
}
