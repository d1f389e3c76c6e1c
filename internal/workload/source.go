// Package workload generates the synthetic memory-reference streams
// that stand in for the paper's Pin-collected traces of SPEC 2006,
// Graph500/CombBLAS and GraphLab PMF (Section IV).
//
// The paper's predictor sees only the address stream, so what matters
// for reproducing its results is the locality structure of each
// benchmark: the L1 hit rate, how much of the working set fits each
// cache level, the fraction of accesses that miss the whole hierarchy,
// and how predictable the strides are. Each benchmark is modelled as a
// weighted mixture of access-pattern components (hot set, sequential
// stream, multi-stride sweep, pointer chase, Zipf) whose region sizes
// are expressed at the paper's machine scale and divided by the
// configured scale factor, so the same profile drives both the exact
// Table I geometry and the laptop-scale runs.
package workload

import (
	"fmt"
	"sort"

	"redhip/internal/memaddr"
	"redhip/internal/trace"
)

// Source produces an endless stream of memory references. Sources are
// not safe for concurrent use; the simulator gives each core its own.
type Source interface {
	// Name identifies the workload (matches the paper's benchmark names).
	Name() string
	// CPI is the average cycles-per-instruction charged for the
	// non-memory instructions between references (Section IV).
	CPI() float64
	// Next fills rec with the next reference. It returns false only
	// for finite sources; the mixture sources here are endless.
	Next(rec *trace.Record) bool
}

// BatchSource is a Source with a bulk-generation fast path. The
// simulator refills a per-core record buffer through NextBatch in
// blocks of a few thousand records, paying source dispatch once per
// block instead of once per reference.
type BatchSource interface {
	Source
	// NextBatch fills buf with the next len(buf) references and returns
	// the number produced. A short count (n < len(buf)) means the
	// source is exhausted; the records it produces are exactly the
	// records the same source would have produced through repeated
	// Next calls, in the same order.
	NextBatch(buf []trace.Record) int
}

// AsBatch returns s itself when it already implements BatchSource and
// otherwise wraps it in a record-at-a-time adapter, so batch consumers
// (the simulator's refill loop, the trace materialiser) can accept any
// Source.
func AsBatch(s Source) BatchSource {
	if bs, ok := s.(BatchSource); ok {
		return bs
	}
	return batcher{s}
}

// batcher adapts a plain Source to BatchSource by looping Next.
type batcher struct{ Source }

func (b batcher) NextBatch(buf []trace.Record) int {
	for i := range buf {
		if !b.Next(&buf[i]) {
			return i
		}
	}
	return len(buf)
}

// ComponentKind selects one of the access-pattern building blocks.
type ComponentKind int

const (
	// KindHot is uniform traffic over a small hot region (stack,
	// globals); sized to fit L1 it produces the high L1 hit rates real
	// programs show.
	KindHot ComponentKind = iota
	// KindStream is a sequential walk with 8-byte elements.
	KindStream
	// KindStrided interleaves several large-stride sweeps.
	KindStrided
	// KindChase is a pseudo-random permutation walk (pointer chasing).
	KindChase
	// KindZipf draws blocks with a skewed popularity distribution.
	KindZipf
)

func (k ComponentKind) String() string {
	switch k {
	case KindHot:
		return "hot"
	case KindStream:
		return "stream"
	case KindStrided:
		return "strided"
	case KindChase:
		return "chase"
	case KindZipf:
		return "zipf"
	}
	return fmt.Sprintf("ComponentKind(%d)", int(k))
}

// ComponentSpec describes one component of a workload mixture.
type ComponentSpec struct {
	Kind ComponentKind
	// Weight is the probability mass of this component (the specs of a
	// profile are normalised).
	Weight float64
	// SizeLog2 is log2 of the region size in bytes at paper scale
	// (e.g. 26 = 64 MiB). Scaling subtracts log2(scale).
	SizeLog2 uint
	// Strides, for KindStrided, are the per-stream strides in bytes.
	Strides []uint64
	// Skew, for KindZipf, is the popularity skew (>= 1).
	Skew float64
}

// Profile is a complete workload description.
type Profile struct {
	Name string
	// CPI of the non-memory instructions (Section IV's timing model).
	CPIVal float64
	// WriteFrac is the fraction of references that are stores.
	WriteFrac float64
	// MeanGap is the average number of non-memory instructions between
	// references (the paper traces average 2: 1.5 B instructions for
	// 500 M references).
	MeanGap float64
	// Components of the mixture.
	Components []ComponentSpec
}

// Validate checks a profile for internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("workload: profile %q has no components", p.Name)
	}
	if p.CPIVal <= 0 {
		return fmt.Errorf("workload: profile %q has non-positive CPI %v", p.Name, p.CPIVal)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("workload: profile %q write fraction %v outside [0,1]", p.Name, p.WriteFrac)
	}
	total := 0.0
	for i, c := range p.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("workload: profile %q component %d has non-positive weight", p.Name, i)
		}
		if c.SizeLog2 < memaddr.BlockBits || c.SizeLog2 > 40 {
			return fmt.Errorf("workload: profile %q component %d size 2^%d out of range", p.Name, i, c.SizeLog2)
		}
		if c.Kind == KindStrided && len(c.Strides) == 0 {
			return fmt.Errorf("workload: profile %q component %d strided with no strides", p.Name, i)
		}
		total += c.Weight
	}
	if total <= 0 {
		return fmt.Errorf("workload: profile %q has zero total weight", p.Name)
	}
	return nil
}

// mixSource is the Source implementation: a weighted mixture over
// components with a synthetic PC per (component, slot).
type mixSource struct {
	name       string
	cpi        float64
	writeFrac  float64
	gapCutoff  uint32 // gaps are uniform in [0, 2*mean], preserving the mean
	rng        *rng
	cum        []float64 // cumulative normalised weights
	components []component
	pcBase     []memaddr.Addr
}

// New builds a Source from a profile at the given scale. Scale divides
// every region size (it must be a power of two >= 1); scale 1 is the
// paper's geometry, scale 16 matches sim.ScaledConfig. The seed makes
// the stream reproducible.
func New(p *Profile, scale uint64, seed uint64) (Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !memaddr.IsPow2(scale) {
		return nil, fmt.Errorf("workload: scale %d must be a power of two", scale)
	}
	scaleBits, err := memaddr.CheckedLog2("scale", scale)
	if err != nil {
		return nil, err
	}
	s := &mixSource{
		name:      p.Name,
		cpi:       p.CPIVal,
		writeFrac: p.WriteFrac,
		gapCutoff: uint32(2*p.MeanGap + 1),
		rng:       newRNG(seed ^ hashName(p.Name)),
	}
	total := 0.0
	for _, c := range p.Components {
		total += c.Weight
	}
	acc := 0.0
	for i, c := range p.Components {
		sizeLog := c.SizeLog2
		if sizeLog > memaddr.BlockBits+scaleBits {
			sizeLog -= scaleBits
		} else {
			sizeLog = memaddr.BlockBits // floor at one block
		}
		size := uint64(1) << sizeLog
		if err := validateSize(p.Name, size); err != nil {
			return nil, err
		}
		base := regionBase(i)
		var comp component
		switch c.Kind {
		case KindHot:
			comp = newHot(base, size)
		case KindStream:
			comp = newStream(base, size, 8)
		case KindStrided:
			comp = newStrided(base, size, c.Strides)
		case KindChase:
			comp = newChase(base, sizeLog-memaddr.BlockBits)
		case KindZipf:
			skew := c.Skew
			if skew < 1 {
				skew = 1
			}
			comp = newZipf(base, size, skew)
		default:
			return nil, fmt.Errorf("workload: profile %q component %d: unknown kind %v", p.Name, i, c.Kind)
		}
		comp.reset(s.rng)
		acc += c.Weight / total
		s.cum = append(s.cum, acc)
		s.components = append(s.components, comp)
		// A distinct synthetic code region per component. The spacing
		// is deliberately not a multiple of a power of two: real PCs
		// scatter across prefetcher table indexes, and round spacing
		// would alias every component onto the same RPT entry.
		s.pcBase = append(s.pcBase, memaddr.Addr(0x400000+uint64(i)*0xb3c))
	}
	s.cum[len(s.cum)-1] = 1.0 // guard against float accumulation error
	return s, nil
}

func (s *mixSource) Name() string { return s.name }

func (s *mixSource) CPI() float64 { return s.cpi }

func (s *mixSource) Next(rec *trace.Record) bool {
	u := s.rng.float64()
	ci := sort.SearchFloat64s(s.cum, u)
	if ci == len(s.cum) {
		ci = len(s.cum) - 1
	}
	addr, slot := s.components[ci].next(s.rng)
	rec.Addr = addr
	rec.PC = s.pcBase[ci] + memaddr.Addr(slot*4)
	rec.Write = s.rng.float64() < s.writeFrac
	if s.gapCutoff <= 1 {
		rec.Gap = 0
	} else {
		rec.Gap = uint32(s.rng.intn(uint64(s.gapCutoff)))
	}
	return true
}

// NextBatch implements BatchSource. The loop calls the concrete Next
// directly — no interface dispatch per record — and consumes the RNG in
// exactly the order repeated Next calls would, so batch-generated and
// record-at-a-time streams are bit-identical.
func (s *mixSource) NextBatch(buf []trace.Record) int {
	for i := range buf {
		s.Next(&buf[i])
	}
	return len(buf)
}

// shift returns s with its entire address stream moved by a constant,
// placing multiprogrammed copies of the same benchmark in disjoint
// address spaces.
func shift(s Source, offset memaddr.Addr) Source {
	if offset == 0 {
		return s
	}
	return &offsetSource{Source: s, batch: AsBatch(s), offset: offset}
}

type offsetSource struct {
	Source
	batch  BatchSource // the same underlying source, for NextBatch
	offset memaddr.Addr
}

func (o *offsetSource) Next(rec *trace.Record) bool {
	ok := o.Source.Next(rec)
	rec.Addr += o.offset
	return ok
}

// NextBatch implements BatchSource: bulk-generate, then shift.
func (o *offsetSource) NextBatch(buf []trace.Record) int {
	n := o.batch.NextBatch(buf)
	for i := 0; i < n; i++ {
		buf[i].Addr += o.offset
	}
	return n
}

// hashName mixes the profile name into the seed so distinct benchmarks
// sharing a seed still see decorrelated streams.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Capture materialises n references from a source into a Trace, which
// is useful for writing trace files and for tests.
func Capture(src Source, n int) *trace.Trace {
	tr := &trace.Trace{Name: src.Name(), CPI: src.CPI()}
	tr.Records = make([]trace.Record, n)
	for i := 0; i < n; i++ {
		if !src.Next(&tr.Records[i]) {
			tr.Records = tr.Records[:i]
			break
		}
	}
	return tr
}

// TraceSource replays a finite, in-memory record slice as a Source
// (trace files written by cmd/redhip-trace, or streams materialised by
// the experiment runner's trace store). The record slice is read-only:
// any number of TraceSources may replay the same backing slice
// concurrently, each with its own cursor, which is what lets a scheme
// sweep fan out across worker goroutines over one materialised stream.
//
// A replay may carry an address offset, so the cores of a
// multiprogrammed workload replay one stored stream, each in its own
// address space: Next and NextBatch return shifted records, while the
// zero-copy Window returns the shared records as stored and leaves the
// shift (Offset) to its caller.
type TraceSource struct {
	name string
	cpi  float64
	recs []trace.Record
	pos  int
	off  memaddr.Addr
}

// FromTrace wraps tr as a Source, sharing tr.Records. The caller
// promises not to mutate the records afterwards.
func FromTrace(tr *trace.Trace) *TraceSource {
	return ReplayAt(tr, 0)
}

// ReplayAt is FromTrace with every replayed address shifted by off.
func ReplayAt(tr *trace.Trace, off memaddr.Addr) *TraceSource {
	return &TraceSource{name: tr.Name, cpi: tr.CPI, recs: tr.Records, off: off}
}

// Name implements Source.
func (t *TraceSource) Name() string { return t.name }

// CPI implements Source.
func (t *TraceSource) CPI() float64 { return t.cpi }

// Offset is the address shift Next and NextBatch apply and Window
// leaves to its caller.
func (t *TraceSource) Offset() memaddr.Addr { return t.off }

// Next implements Source; it returns false when the trace is exhausted.
func (t *TraceSource) Next(rec *trace.Record) bool {
	if t.pos >= len(t.recs) {
		return false
	}
	*rec = t.recs[t.pos]
	rec.Addr += t.off
	t.pos++
	return true
}

// NextBatch implements BatchSource: one bulk copy per refill, then the
// shift.
func (t *TraceSource) NextBatch(buf []trace.Record) int {
	n := copy(buf, t.recs[t.pos:])
	t.pos += n
	if t.off != 0 {
		for i := range buf[:n] {
			buf[i].Addr += t.off
		}
	}
	return n
}

// Window returns up to max records starting at the cursor as a direct,
// read-only view of the backing slice, advancing the cursor past them.
// The records are unshifted: the caller adds Offset to each address.
// It returns an empty slice when the trace is exhausted. The simulator
// prefers this zero-copy path over NextBatch for trace replays.
func (t *TraceSource) Window(max int) []trace.Record {
	end := t.pos + max
	if end > len(t.recs) {
		end = len(t.recs)
	}
	w := t.recs[t.pos:end]
	t.pos = end
	return w
}

// Fork returns an independent cursor over the same backing records,
// starting at t's current position.
func (t *TraceSource) Fork() *TraceSource {
	f := *t
	return &f
}

// Seek moves the cursor to record n, counted from the start: a
// snapshot restore resumes a replay at its warmup boundary. Seeking
// past the last record fails.
func (t *TraceSource) Seek(n uint64) error {
	if n > uint64(len(t.recs)) {
		return fmt.Errorf("workload: trace position %d beyond %d records", n, len(t.recs))
	}
	t.pos = int(n)
	return nil
}

// Rewind restarts the trace from the beginning.
func (t *TraceSource) Rewind() { t.pos = 0 }

// Len returns the total number of records in the trace.
func (t *TraceSource) Len() int { return len(t.recs) }
