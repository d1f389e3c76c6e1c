package sim

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"redhip/internal/cache"
	"redhip/internal/core"
	"redhip/internal/memaddr"
	"redhip/internal/prefetch"
	"redhip/internal/redhipassert"
	"redhip/internal/simstate"
)

// This file is the warm-state snapshot/branch layer: a RunMultiOpt pass
// with a SnapshotSink serialises each fully-warmed engine
// (internal/simstate) as it crosses the warmup/measure boundary, and a
// pass given Snapshots re-seats fresh engines from those blobs and runs
// only the measure window. The split is exactly the boundary
// resetMeasurement defines, so a restored measure phase is
// bit-identical to a straight-through warmup+measure run — pinned by
// TestGoldenSnapshotBranch against the sixteen golden fingerprints.

// ErrSnapshot marks a snapshot that cannot be used with the given
// configuration and sources — wrong geometry lineage, corrupt blob,
// sources that are not trace replays. Callers (the experiment
// runner) treat it as "fall back to a cold run", never as a run
// failure.
var ErrSnapshot = errors.New("sim: snapshot unusable")

// WarmKey digests everything the warm state depends on: the full
// configuration with the measure-window length zeroed (so measure
// variants of any length branch from one warm state), the workload
// name, and the generator seed. Two runs agree on WarmKey iff their
// warmup phases are bit-identical.
func WarmKey(cfg Config, workloadName string, seed uint64) [32]byte {
	cfg.RefsPerCore = 0
	b, err := json.Marshal(&cfg)
	if err != nil {
		// Config is a closed struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sim: marshal config for warm key: %v", err))
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "|%s|%d", workloadName, seed)
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

func warmMeta(cfg *Config, workloadName string, seed uint64) simstate.Meta {
	return simstate.Meta{
		ConfigHash: WarmKey(*cfg, workloadName, seed),
		Workload:   workloadName,
		Scheme:     cfg.Scheme.String(),
		Cores:      uint32(cfg.Cores),
		WarmupRefs: cfg.WarmupRefsPerCore,
	}
}

// validateWarmMeta rejects a snapshot taken under a different
// warm-relevant configuration. The clear-text fields produce readable
// errors for the common mismatches; the hash catches everything else.
func validateWarmMeta(m *simstate.Meta, cfg *Config, workloadName string, seed uint64) error {
	switch {
	case m.Workload != workloadName:
		return fmt.Errorf("%w: snapshot is of workload %q, want %q", ErrSnapshot, m.Workload, workloadName)
	case m.Scheme != cfg.Scheme.String():
		return fmt.Errorf("%w: snapshot is of scheme %q, want %q", ErrSnapshot, m.Scheme, cfg.Scheme)
	case m.Cores != uint32(cfg.Cores):
		return fmt.Errorf("%w: snapshot has %d cores, want %d", ErrSnapshot, m.Cores, cfg.Cores)
	case m.WarmupRefs != cfg.WarmupRefsPerCore:
		return fmt.Errorf("%w: snapshot absorbed %d warmup refs/core, want %d", ErrSnapshot, m.WarmupRefs, cfg.WarmupRefsPerCore)
	case m.ConfigHash != WarmKey(*cfg, workloadName, seed):
		return fmt.Errorf("%w: warm-config hash mismatch (geometry, energy, seed or policy differs)", ErrSnapshot)
	}
	return nil
}

// captureSnapshot serialises the engine's warm state. Call only at the
// warmup/measure boundary, immediately after resetMeasurement: stats,
// meters and clocks are zero there, so they are not part of the
// snapshot by construction.
func (e *engine) captureSnapshot() *simstate.Snapshot {
	s := &simstate.Snapshot{}
	grab := func(c *cache.Cache) {
		tagv, ord, rng := c.SnapshotState()
		s.Caches = append(s.Caches, simstate.CacheState{TagV: tagv, Ord: ord, RNG: rng})
	}
	for _, c := range e.l1 {
		grab(c)
	}
	for _, c := range e.l2 {
		grab(c)
	}
	for _, c := range e.l3 {
		grab(c)
	}
	grab(e.l4)
	table := func(t *core.Table) {
		words, ctr := t.SnapshotState()
		s.Tables = append(s.Tables, simstate.TableState{
			Words: words, Lookups: ctr[0], PredHits: ctr[1], Sets: ctr[2], Recals: ctr[3],
		})
	}
	if e.ptable != nil {
		table(e.ptable)
	}
	for _, t := range e.exL2 {
		table(t)
	}
	for _, t := range e.exL3 {
		table(t)
	}
	if e.exL4 != nil {
		table(e.exL4)
	}
	if e.mirror != nil {
		s.Mirror = &simstate.MirrorState{Refs: e.mirror.SnapshotRefs()}
	}
	if e.cbf != nil {
		counters, st := e.cbf.SnapshotState()
		s.CBF = &simstate.CBFState{
			Counters: counters, Lookups: st[0], Present: st[1], Saturated: st[2], Underflow: st[3],
		}
	}
	for _, p := range e.pf {
		ents := p.SnapshotEntries()
		out := make([]simstate.PrefetchEntry, len(ents))
		for i, en := range ents {
			out[i] = simstate.PrefetchEntry{
				PC: en.PC, LastAddr: en.LastAddr, Stride: en.Stride, State: en.State, Valid: en.Valid,
			}
		}
		s.Prefetchers = append(s.Prefetchers, simstate.PrefetcherState{Entries: out})
	}
	for _, mark := range e.prefetched.marks {
		if mark != 0 {
			s.PFFilter = append(s.PFFilter, simstate.PFSlot{Slot: uint32(markSlot(mark)), Mark: mark})
		}
	}
	slices.SortFunc(s.PFFilter, func(a, b simstate.PFSlot) int { return cmp.Compare(a.Slot, b.Slot) })
	s.PFMarks = uint64(e.prefetched.live)
	s.MissesSinceRecal = e.missesSinceRecal
	s.Adaptive = simstate.AdaptiveState{
		On:             e.adaptOn,
		Streak:         uint64(e.adaptStreak),
		EpochRefs:      e.epochRefs,
		EpochStartMiss: e.epochStartMiss,
		EpochStartTN:   e.epochStartTN,
	}
	s.FNSeen = e.fnSeen
	s.FNBlock = uint64(e.fnBlock)
	return s
}

// restoreSnapshot overwrites a freshly built engine's warm state from a
// decoded snapshot. The engine must match the snapshot's configuration
// (validated upstream via Meta); residual mismatches — a blob whose
// component inventory disagrees with the engine's — fail here without
// wrapping, and RunMultiOpt adds the ErrSnapshot classification.
func (e *engine) restoreSnapshot(s *simstate.Snapshot) error {
	caches := make([]*cache.Cache, 0, 3*len(e.l1)+1)
	caches = append(caches, e.l1...)
	caches = append(caches, e.l2...)
	caches = append(caches, e.l3...)
	caches = append(caches, e.l4)
	if len(s.Caches) != len(caches) {
		return fmt.Errorf("sim: snapshot has %d caches, engine has %d", len(s.Caches), len(caches))
	}
	for i, c := range caches {
		cs := &s.Caches[i]
		if err := c.RestoreSnapshotState(cs.TagV, cs.Ord, cs.RNG); err != nil {
			return err
		}
	}
	tables := make([]*core.Table, 0, 2*len(e.exL2)+1)
	if e.ptable != nil {
		tables = append(tables, e.ptable)
	}
	tables = append(tables, e.exL2...)
	tables = append(tables, e.exL3...)
	if e.exL4 != nil {
		tables = append(tables, e.exL4)
	}
	if len(s.Tables) != len(tables) {
		return fmt.Errorf("sim: snapshot has %d prediction tables, engine has %d", len(s.Tables), len(tables))
	}
	for i, t := range tables {
		ts := &s.Tables[i]
		if err := t.RestoreSnapshotState(ts.Words, [4]uint64{ts.Lookups, ts.PredHits, ts.Sets, ts.Recals}); err != nil {
			return err
		}
	}
	if (e.mirror != nil) != (s.Mirror != nil) {
		return fmt.Errorf("sim: snapshot mirror-table presence disagrees with engine scheme")
	}
	if e.mirror != nil {
		if err := e.mirror.RestoreRefs(s.Mirror.Refs); err != nil {
			return err
		}
	}
	if (e.cbf != nil) != (s.CBF != nil) {
		return fmt.Errorf("sim: snapshot CBF presence disagrees with engine scheme")
	}
	if e.cbf != nil {
		c := s.CBF
		if err := e.cbf.RestoreSnapshotState(c.Counters, [4]uint64{c.Lookups, c.Present, c.Saturated, c.Underflow}); err != nil {
			return err
		}
	}
	if len(s.Prefetchers) != len(e.pf) {
		return fmt.Errorf("sim: snapshot has %d prefetchers, engine has %d", len(s.Prefetchers), len(e.pf))
	}
	for i, p := range e.pf {
		ents := s.Prefetchers[i].Entries
		in := make([]prefetch.EntryState, len(ents))
		for j, en := range ents {
			in[j] = prefetch.EntryState{
				PC: en.PC, LastAddr: en.LastAddr, Stride: en.Stride, State: en.State, Valid: en.Valid,
			}
		}
		if err := p.RestoreEntries(in); err != nil {
			return err
		}
	}
	if e.prefetched.marks == nil && len(s.PFFilter) > 0 {
		return fmt.Errorf("sim: snapshot carries a prefetch filter but prefetching is disabled")
	}
	if uint64(len(s.PFFilter)) != s.PFMarks {
		return fmt.Errorf("sim: snapshot prefetch filter has %d occupied slots but claims %d marks", len(s.PFFilter), s.PFMarks)
	}
	prev := -1
	for _, ps := range s.PFFilter {
		slot := int(ps.Slot)
		if slot <= prev {
			return fmt.Errorf("sim: snapshot prefetch filter slots not strictly ascending at %d", slot)
		}
		if slot >= 1<<pfFilterBits {
			return fmt.Errorf("sim: snapshot prefetch filter slot %d outside %d-slot filter", slot, 1<<pfFilterBits)
		}
		if ps.Mark == 0 {
			return fmt.Errorf("sim: snapshot prefetch filter slot %d holds an empty mark", slot)
		}
		if markSlot(ps.Mark) != uint64(slot) {
			return fmt.Errorf("sim: snapshot prefetch filter slot %d holds a mark of slot %d", slot, markSlot(ps.Mark))
		}
		e.prefetched.note(memaddr.Addr(ps.Mark - 1))
		prev = slot
	}
	e.missesSinceRecal = s.MissesSinceRecal
	e.adaptOn = s.Adaptive.On
	e.adaptStreak = int(s.Adaptive.Streak)
	e.epochRefs = s.Adaptive.EpochRefs
	e.epochStartMiss = s.Adaptive.EpochStartMiss
	e.epochStartTN = s.Adaptive.EpochStartTN
	e.fnSeen = s.FNSeen
	e.fnBlock = memaddr.Addr(s.FNBlock)
	if redhipassert.Enabled {
		redhipassert.Check(uint64(e.prefetched.live) == s.PFMarks, "sim: restored prefetch-filter mark count diverges from occupancy")
		redhipassert.Check(e.missesSinceRecal == 0 || e.cfg.RecalPeriod == 0 || e.missesSinceRecal < e.cfg.RecalPeriod,
			"sim: restored recalibration clock at or past its period")
	}
	return nil
}
