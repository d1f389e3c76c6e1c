package predictor

import (
	"fmt"

	"redhip/internal/memaddr"
)

// MirrorTable models the limit point of Figure 12: a ReDHiP table
// recalibrated after *every* L1 miss. A table that is always freshly
// recalibrated is semantically identical to one that exactly mirrors
// the covered cache's contents under the same bits-hash — the only
// inaccuracy left is hash aliasing. The simulator implements that
// mirror directly with per-entry reference counts (pure simulation
// bookkeeping, not proposed hardware), which is vastly cheaper than
// re-sweeping the tag array on every miss.
type MirrorTable struct {
	refs []uint32
	mask uint64 //redhip:transient derived from the entry count, rebuilt by NewMirrorTable
}

// NewMirrorTable builds a mirror of a ReDHiP table of the given size.
func NewMirrorTable(sizeBytes uint64) (*MirrorTable, error) {
	entries := sizeBytes * 8
	if _, err := memaddr.CheckedLog2("mirror table entries", entries); err != nil {
		return nil, err
	}
	return &MirrorTable{
		refs: make([]uint32, entries),
		mask: entries - 1,
	}, nil
}

// PredictPresent reports whether any resident block maps to the
// block's entry.
func (m *MirrorTable) PredictPresent(b memaddr.Addr) bool {
	return m.refs[uint64(b)&m.mask] != 0
}

// OnFill counts a block inserted into the covered cache.
func (m *MirrorTable) OnFill(b memaddr.Addr) { m.refs[uint64(b)&m.mask]++ }

// OnEvict uncounts a block evicted from the covered cache; evicting a
// block that was never filled is an engine bug and panics.
func (m *MirrorTable) OnEvict(b memaddr.Addr) {
	r := &m.refs[uint64(b)&m.mask]
	if *r == 0 {
		panic(fmt.Sprintf("predictor: mirror table underflow for block %v", b))
	}
	*r--
}

// SnapshotRefs copies out the mirror's reference counts for warm-state
// serialisation.
func (m *MirrorTable) SnapshotRefs() []uint32 {
	return append([]uint32(nil), m.refs...)
}

// RestoreRefs overwrites the mirror's reference counts with a
// previously-snapshotted state of matching size.
func (m *MirrorTable) RestoreRefs(refs []uint32) error {
	if len(refs) != len(m.refs) {
		return fmt.Errorf("predictor: snapshot has %d mirror refs, table needs %d", len(refs), len(m.refs))
	}
	copy(m.refs, refs)
	return nil
}
