package sim

import (
	"redhip/internal/energy"
	"redhip/internal/memaddr"
	"redhip/internal/redhipassert"
)

// --- inclusive hierarchy (the paper's main configuration) --------------------

// missInclusive walks an L1 miss (probed and counted by runWindow)
// down the fully inclusive hierarchy: every level contains all blocks
// of the levels above it, so "absent from L4" means "absent
// everywhere" and a predicted-absent L1 miss goes straight to memory
// (Section III). pc and addr (offset for the core) train the
// prefetcher.
//
//redhip:hotpath
func (e *engine) missInclusive(c int, block, pc, addr memaddr.Addr) {
	if e.consultLLC(c, block) {
		e.fetchMemory(c)
		e.fillL4Incl(block)
		e.fillL3Incl(c, block)
		e.fillL2Incl(c, block)
		e.fillL1(c, block)
		e.train(c, pc, addr)
		return
	}
	e.chargeParallel(c, energy.L2)
	if e.l2[c].Lookup(block) {
		e.markUseful(block)
		e.fillL1(c, block)
		e.train(c, pc, addr)
		return
	}
	if e.lookupSplit(c, energy.L3, e.l3[c], block) {
		e.markUseful(block)
		e.fillL2Incl(c, block)
		e.fillL1(c, block)
		e.train(c, pc, addr)
		return
	}
	if e.lookupSplit(c, energy.L4, e.l4, block) {
		e.markUseful(block)
		e.fillL3Incl(c, block)
		e.fillL2Incl(c, block)
		e.fillL1(c, block)
		e.train(c, pc, addr)
		return
	}
	e.fetchMemory(c)
	e.fillL4Incl(block)
	e.fillL3Incl(c, block)
	e.fillL2Incl(c, block)
	e.fillL1(c, block)
	e.train(c, pc, addr)
}

// fillL1 inserts into L1. Under inclusion an L1 victim still lives in
// L2 and below, so nothing else happens.
func (e *engine) fillL1(c int, block memaddr.Addr) {
	e.l1[c].Fill(block)
	e.chargeFill(energy.L1)
}

// fillL2Incl inserts into L2 and back-invalidates the victim from L1 to
// preserve inclusion.
func (e *engine) fillL2Incl(c int, block memaddr.Addr) {
	ev, was := e.l2[c].Fill(block)
	e.chargeFill(energy.L2)
	if was {
		e.l1[c].Invalidate(ev)
	}
}

// fillL3Incl inserts into L3 and back-invalidates the victim from L2
// and L1.
func (e *engine) fillL3Incl(c int, block memaddr.Addr) {
	ev, was := e.l3[c].Fill(block)
	e.chargeFill(energy.L3)
	if was {
		inL2 := e.l2[c].Invalidate(ev)
		inL1 := e.l1[c].Invalidate(ev)
		if redhipassert.Enabled {
			redhipassert.Check(inL2 || !inL1, "sim: inclusion violated: L1 held a block its L2 lacked")
		}
	}
}

// fillL4Incl inserts into the shared L4, notifying the predictor and
// back-invalidating the victim from every core's private levels. The
// caller must have established that the block is absent from L4 (a
// lookup or prediction cross-checked against ground truth), so the
// fill notice fires exactly once per resident block. The ReDHiP table
// only sets bits; its evictions wait for the next recalibration.
//
// Every level is probed, under Inclusive too. Under Inclusive a core
// whose L3 lacks the victim holds it nowhere, so the walk could stop
// there, and the assertion below checks that property on every
// eviction; but the early stop was measured twice without a reward
// (DESIGN.md §8), so the probes stay unconditional.
func (e *engine) fillL4Incl(block memaddr.Addr) {
	ev, was := e.l4.Fill(block)
	e.chargeFill(energy.L4)
	switch e.kind {
	case predTable:
		e.ptable.Set(block)
	case predMirror:
		e.mirror.OnFill(block)
		if was {
			e.mirror.OnEvict(ev)
		}
	case predCBF:
		e.cbf.OnFill(block)
		if was {
			e.cbf.OnEvict(ev)
		}
	}
	if was {
		for c := 0; c < e.cfg.Cores; c++ {
			inL3 := e.l3[c].Invalidate(ev)
			inL2 := e.l2[c].Invalidate(ev)
			inL1 := e.l1[c].Invalidate(ev)
			if redhipassert.Enabled && e.cfg.Inclusion == Inclusive {
				redhipassert.Check(inL3 || !(inL2 || inL1), "sim: inclusion violated: L2 or L1 held a block its L3 lacked")
			}
		}
	}
}

// --- hybrid hierarchy (exclusive privates, inclusive shared LLC) --------------

// missHybrid walks an L1 miss down the hybrid hierarchy of Section
// III-C: L1/L2/L3 hold disjoint blocks (victim-cache demotion among
// them) while the shared L4 is inclusive of everything, so the LLC
// predictor stays safe and "no changes are required for ReDHiP".
//
//redhip:hotpath
func (e *engine) missHybrid(c int, block, pc, addr memaddr.Addr) {
	if e.consultLLC(c, block) {
		e.fetchMemory(c)
		e.fillL4Incl(block)
		e.fillL1Demote(c, block)
		e.train(c, pc, addr)
		return
	}
	e.chargeParallel(c, energy.L2)
	if e.l2[c].Lookup(block) {
		e.markUseful(block)
		e.l2[c].Invalidate(block) // promote: exclusive privates
		e.fillL1Demote(c, block)
		e.train(c, pc, addr)
		return
	}
	if e.lookupSplit(c, energy.L3, e.l3[c], block) {
		e.markUseful(block)
		e.l3[c].Invalidate(block)
		e.fillL1Demote(c, block)
		e.train(c, pc, addr)
		return
	}
	if e.lookupSplit(c, energy.L4, e.l4, block) {
		e.markUseful(block)
		e.fillL1Demote(c, block) // L4 keeps the block: it is inclusive
		e.train(c, pc, addr)
		return
	}
	e.fetchMemory(c)
	e.fillL4Incl(block)
	e.fillL1Demote(c, block)
	e.train(c, pc, addr)
}

// fillL1Demote inserts into L1 with the exclusive demotion chain: the
// L1 victim demotes to L2, L2's victim to L3. L3's victim demotes to L4
// under the fully exclusive policy and is dropped under Hybrid (where
// it still resides in the inclusive L4).
func (e *engine) fillL1Demote(c int, block memaddr.Addr) {
	ev, was := e.l1[c].Fill(block)
	e.chargeFill(energy.L1)
	if was {
		e.demoteToL2(c, ev)
	}
}

func (e *engine) demoteToL2(c int, block memaddr.Addr) {
	ev, was := e.l2[c].Fill(block)
	e.chargeFill(energy.L2)
	if e.exL2 != nil {
		e.exL2[c].Set(block)
	}
	if was {
		e.demoteToL3(c, ev)
	}
}

func (e *engine) demoteToL3(c int, block memaddr.Addr) {
	ev, was := e.l3[c].Fill(block)
	e.chargeFill(energy.L3)
	if e.exL3 != nil {
		e.exL3[c].Set(block)
	}
	if was && e.cfg.Inclusion == Exclusive {
		e.demoteToL4(ev)
	}
}

func (e *engine) demoteToL4(block memaddr.Addr) {
	e.l4.Fill(block)
	e.chargeFill(energy.L4)
	if e.exL4 != nil {
		e.exL4.Set(block)
	}
	// The L4 victim (if any) falls off-chip; nothing tracks it.
}

// --- fully exclusive hierarchy -------------------------------------------------

// predictExclusive queries the per-level prediction (Section III-C:
// "the prediction tables from every level down the hierarchy is
// requested simultaneously"). All three answers cost one table latency;
// each table's lookup energy is charged. Predictions are scored against
// per-level ground truth.
//
//redhip:hotpath
func (e *engine) predictExclusive(c int, block memaddr.Addr) (p2, p3, p4 bool) {
	switch e.cfg.Scheme {
	case Base, Phased:
		return true, true, true
	case CBF:
		// Config.Validate rejects CBF with the exclusive hierarchy, so
		// this arm is unreachable; predict conservatively if it ever runs.
		return true, true, true
	case Oracle:
		return e.l2[c].Contains(block), e.l3[c].Contains(block), e.l4.Contains(block)
	case ReDHiP:
		if !e.adaptOn {
			return true, true, true
		}
		if !e.cfg.IgnorePredictionOverhead {
			e.clock[c] += e.exDelay
			e.meter.AddPT(3 * e.par.PTAccessNJ)
		}
		p2 = e.exL2[c].PredictPresent(block)
		p3 = e.exL3[c].PredictPresent(block)
		p4 = e.exL4.PredictPresent(block)
		e.scorePrediction(p2, e.l2[c].Contains(block), block)
		e.scorePrediction(p3, e.l3[c].Contains(block), block)
		e.scorePrediction(p4, e.l4.Contains(block), block)
		return p2, p3, p4
	}
	return true, true, true
}

func (e *engine) scorePrediction(present, truth bool, block memaddr.Addr) {
	e.res.Pred.Lookups++
	switch {
	case present && truth:
		e.res.Pred.TruePositive++
	case present && !truth:
		e.res.Pred.FalsePositive++
	case !present && !truth:
		e.res.Pred.TrueNegative++
	default:
		e.res.Pred.FalseNegative++
		if !e.fnSeen {
			e.fnSeen, e.fnBlock = true, block
		}
	}
}

// missExclusive walks an L1 miss down the fully exclusive hierarchy:
// every level holds distinct blocks; a hit removes the block from its
// level and promotes it to L1, demoting victims down the chain. Levels
// whose table predicts absent are skipped, and "the request is sent to
// the lowest level where it may exist rather than always restarting at
// the L2 cache" (Section III-C).
//
//redhip:hotpath
func (e *engine) missExclusive(c int, block, pc, addr memaddr.Addr) {
	p2, p3, p4 := e.predictExclusive(c, block)
	if p2 {
		e.chargeParallel(c, energy.L2)
		if e.l2[c].Lookup(block) {
			e.markUseful(block)
			e.l2[c].Invalidate(block)
			e.fillL1Demote(c, block)
			e.train(c, pc, addr)
			return
		}
	}
	if p3 {
		if e.lookupSplit(c, energy.L3, e.l3[c], block) {
			e.markUseful(block)
			e.l3[c].Invalidate(block)
			e.fillL1Demote(c, block)
			e.train(c, pc, addr)
			return
		}
	}
	if p4 {
		if e.lookupSplit(c, energy.L4, e.l4, block) {
			e.markUseful(block)
			e.l4.Invalidate(block) // exclusive: L4 gives the block up
			e.fillL1Demote(c, block)
			e.train(c, pc, addr)
			return
		}
	}
	e.fetchMemory(c)
	e.fillL1Demote(c, block)
	e.train(c, pc, addr)
}

// --- prefetch issue ---------------------------------------------------------------

// prefetchProbe checks residency for an asynchronous prefetch. It
// charges the same lookup energy a demand access would (prefetches are
// exactly as expensive per probe — that is the energy cost Figure 15
// shows) but adds no demand-path delay and does not perturb demand
// hit/miss statistics or LRU state.
func (e *engine) prefetchProbe(l energy.Level, contains func(memaddr.Addr) bool, block memaddr.Addr) bool {
	if e.cfg.Scheme == Phased && (l == energy.L3 || l == energy.L4) {
		e.meter.AddTag(l, e.par)
		if contains(block) {
			e.meter.AddData(l, e.par)
			return true
		}
		return false
	}
	e.meter.AddParallel(l, e.par)
	return contains(block)
}

// issuePrefetch sends one prefetched block into the hierarchy. Under
// ReDHiP/CBF/Oracle the prefetch consults the predictor first, which is
// how ReDHiP "offsets the energy overhead of hardware data prefetching"
// (Section V-C): predicted-absent prefetches skip every lookup.
func (e *engine) issuePrefetch(c int, block memaddr.Addr) {
	switch e.cfg.Inclusion {
	case Inclusive:
		if e.kind != predNone {
			e.meter.AddPT(e.predNJ)
			if !e.predictPresent(block) {
				e.fetchMemoryAsync()
				e.fillL4Incl(block)
				e.fillL3Incl(c, block)
				e.fillL2Incl(c, block)
				e.prefetched.note(block)
				return
			}
		}
		if e.prefetchProbe(energy.L2, e.l2[c].Contains, block) {
			return
		}
		if e.prefetchProbe(energy.L3, e.l3[c].Contains, block) {
			return
		}
		if e.prefetchProbe(energy.L4, e.l4.Contains, block) {
			// On chip but far away: pull it up to L3/L2.
			e.fillL3Incl(c, block)
			e.fillL2Incl(c, block)
			e.prefetched.note(block)
			return
		}
		e.fetchMemoryAsync()
		e.fillL4Incl(block)
		e.fillL3Incl(c, block)
		e.fillL2Incl(c, block)
		e.prefetched.note(block)
	case Hybrid:
		if e.kind != predNone {
			e.meter.AddPT(e.predNJ)
			if !e.predictPresent(block) {
				e.fetchMemoryAsync()
				e.fillL4Incl(block)
				e.demoteToL2(c, block)
				e.prefetched.note(block)
				return
			}
		}
		if e.prefetchProbe(energy.L2, e.l2[c].Contains, block) {
			return
		}
		if e.prefetchProbe(energy.L3, e.l3[c].Contains, block) {
			return
		}
		if e.prefetchProbe(energy.L4, e.l4.Contains, block) {
			return // resident in the inclusive L4; leave placement alone
		}
		e.fetchMemoryAsync()
		e.fillL4Incl(block)
		e.demoteToL2(c, block)
		e.prefetched.note(block)
	case Exclusive:
		p2, p3, p4 := true, true, true
		if e.cfg.Scheme == ReDHiP {
			e.meter.AddPT(3 * e.par.PTAccessNJ)
			p2 = e.exL2[c].PredictPresent(block)
			p3 = e.exL3[c].PredictPresent(block)
			p4 = e.exL4.PredictPresent(block)
		}
		if p2 && e.prefetchProbe(energy.L2, e.l2[c].Contains, block) {
			return
		}
		if p3 && e.prefetchProbe(energy.L3, e.l3[c].Contains, block) {
			return
		}
		if p4 && e.prefetchProbe(energy.L4, e.l4.Contains, block) {
			return
		}
		if e.l1[c].Contains(block) {
			return
		}
		e.fetchMemoryAsync()
		e.demoteToL2(c, block) // prefetch lands in L2, not L1
		e.prefetched.note(block)
	}
}
