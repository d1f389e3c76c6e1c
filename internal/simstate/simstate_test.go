package simstate

import (
	"bytes"
	"hash/crc64"
	"strings"
	"testing"
)

// sampleSnapshot exercises every field, including the optional
// Mirror/CBF branches and empty slices.
func sampleSnapshot() *Snapshot {
	s := &Snapshot{
		Meta: Meta{
			Workload:   "soplex",
			Scheme:     "redhip",
			Cores:      4,
			WarmupRefs: 25_000,
		},
		Caches: []CacheState{
			{TagV: []uint64{1, 2, 3}, Ord: []uint64{0xFEDCBA9876543210}, RNG: 42},
			{TagV: []uint64{}, Ord: nil, RNG: 7},
		},
		Tables: []TableState{
			{Words: []uint64{0xDEAD, 0xBEEF}, Lookups: 10, PredHits: 9, Sets: 8, Recals: 1},
		},
		Mirror: &MirrorState{Refs: []uint32{0, 1, 2, 0xFFFFFFFF}},
		CBF: &CBFState{
			Counters: []uint8{0, 1, 15}, Lookups: 5, Present: 4, Saturated: 1, Underflow: 0,
		},
		Prefetchers: []PrefetcherState{
			{Entries: []PrefetchEntry{{PC: 0x400000, LastAddr: 0x1000, Stride: -64, State: 2, Valid: true}}},
			{},
		},
		PFFilter:         []PFSlot{{Slot: 3, Mark: 99}, {Slot: 77, Mark: 1}},
		PFMarks:          2,
		MissesSinceRecal: 1234,
		Adaptive:         AdaptiveState{On: true, Streak: 3, EpochRefs: 500, EpochStartMiss: 20, EpochStartTN: 11},
		FNSeen:           false,
		FNBlock:          0,
	}
	copy(s.Meta.ConfigHash[:], bytes.Repeat([]byte{0xAB}, 32))
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleSnapshot()
	blob := Encode(orig)
	dec, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	re := Encode(dec)
	if !bytes.Equal(blob, re) {
		t.Fatalf("re-encode diverged: %d vs %d bytes", len(blob), len(re))
	}
	if dec.Meta != orig.Meta {
		t.Errorf("Meta round-trip: got %+v want %+v", dec.Meta, orig.Meta)
	}
	if dec.PFMarks != orig.PFMarks || dec.MissesSinceRecal != orig.MissesSinceRecal ||
		dec.Adaptive != orig.Adaptive || dec.FNSeen != orig.FNSeen || dec.FNBlock != orig.FNBlock {
		t.Errorf("scalar fields diverged after round trip")
	}
	if len(dec.Caches) != len(orig.Caches) || len(dec.Tables) != len(orig.Tables) ||
		len(dec.Prefetchers) != len(orig.Prefetchers) {
		t.Errorf("slice lengths diverged after round trip")
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid blob in turn
// and asserts the checksum (or a structural check behind it) rejects
// the mutation with a simstate-prefixed error. A bit flip that decodes
// cleanly would restore a subtly-wrong machine — the one failure mode
// the trailer exists to rule out.
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode(sampleSnapshot())
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x5A
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("byte %d: corrupted blob decoded without error", i)
		}
		if !strings.HasPrefix(err.Error(), "simstate: ") {
			t.Fatalf("byte %d: error not simstate-prefixed: %v", i, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob := Encode(sampleSnapshot())
	for _, n := range []int{0, 7, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		} else if !strings.HasPrefix(err.Error(), "simstate: ") {
			t.Fatalf("truncation to %d: error not simstate-prefixed: %v", n, err)
		}
	}
}

// reseal recomputes the CRC trailer over a hand-mutated body so only
// the structural check under test can object.
func reseal(body []byte) []byte {
	e := &encoder{buf: body}
	e.u64(crc64.Checksum(body, crcTable))
	return e.buf
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	blob := Encode(sampleSnapshot())
	// Patch the version field and re-seal the checksum.
	body := append([]byte(nil), blob[:len(blob)-8]...)
	body[len(blobMagic)] = 99
	if _, err := Decode(reseal(body)); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("bad version not rejected: %v", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	blob := Encode(sampleSnapshot())
	// Insert extra payload bytes before the trailer and re-seal.
	body := append([]byte(nil), blob[:len(blob)-8]...)
	body = append(body, 0xEE, 0xEE)
	if _, err := Decode(reseal(body)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
}

func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	s := sampleSnapshot()
	s.Mirror, s.CBF = nil, nil
	blob := Encode(s)
	// The Mirror presence byte is the first bool in the payload; find it
	// by encoding twice with the flag flipped and diffing offsets.
	s2 := sampleSnapshot()
	s2.CBF = nil
	blob2 := Encode(s2)
	diff := -1
	for i := 0; i < len(blob) && i < len(blob2); i++ {
		if blob[i] != blob2[i] {
			diff = i
			break
		}
	}
	if diff < 0 {
		t.Fatal("could not locate presence byte")
	}
	body := append([]byte(nil), blob[:len(blob)-8]...)
	body[diff] = 2
	if _, err := Decode(reseal(body)); err == nil || !strings.Contains(err.Error(), "non-canonical bool") {
		t.Fatalf("non-canonical bool not rejected: %v", err)
	}
}

// FuzzSnapshotRoundTrip pins the canonical-form contract: any byte
// string Decode accepts must re-encode to exactly itself.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(Encode(sampleSnapshot()))
	f.Add(Encode(&Snapshot{}))
	empty := sampleSnapshot()
	empty.Mirror, empty.CBF = nil, nil
	empty.Caches, empty.Tables, empty.Prefetchers, empty.PFFilter = nil, nil, nil, nil
	f.Add(Encode(empty))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "simstate: ") {
				t.Fatalf("error not simstate-prefixed: %v", err)
			}
			return
		}
		re := Encode(s)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted blob is not canonical: %d in, %d re-encoded", len(data), len(re))
		}
		// And the canonical form itself must be stable.
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded blob failed decode: %v", err)
		}
		if !bytes.Equal(Encode(s2), re) {
			t.Fatal("second round trip diverged")
		}
	})
}
