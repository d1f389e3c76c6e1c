package workload

import (
	"testing"
	"testing/quick"

	"redhip/internal/memaddr"
	"redhip/internal/trace"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := newRNG(0)
	if r.next() == 0 && r.next() == 0 {
		t.Fatal("zero seed produced a dead generator")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64() = %v outside [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.intn(17)
		if v >= 17 {
			t.Fatalf("intn(17) = %d", v)
		}
	}
}

func TestRNGIntnZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("intn(0) did not panic")
		}
	}()
	newRNG(1).intn(0)
}

func TestStreamComponentSpatialLocality(t *testing.T) {
	c := newStream(0, 1<<20, 8)
	r := newRNG(1)
	prevBlock := memaddr.Addr(1 << 60)
	newBlocks := 0
	const n = 8000
	for i := 0; i < n; i++ {
		a, _ := c.next(r)
		if b := a.Block(); b != prevBlock {
			newBlocks++
			prevBlock = b
		}
	}
	// 8-byte elements in 64-byte blocks: one new block every 8 accesses.
	if newBlocks != n/8 {
		t.Fatalf("stream touched %d new blocks in %d accesses, want %d", newBlocks, n, n/8)
	}
}

func TestStreamComponentWraps(t *testing.T) {
	c := newStream(0x1000, 64, 8)
	r := newRNG(1)
	var last memaddr.Addr
	for i := 0; i < 9; i++ {
		last, _ = c.next(r)
	}
	if last != 0x1000 {
		t.Fatalf("after wrap, addr = %v, want 0x1000", last)
	}
}

func TestStridedComponentChangesBlocks(t *testing.T) {
	c := newStrided(0, 1<<24, []uint64{320, 640, 1280})
	r := newRNG(1)
	seen := map[memaddr.Addr]bool{}
	prev := map[int]memaddr.Addr{}
	for i := 0; i < 3000; i++ {
		a, slot := c.next(r)
		seen[a.Block()] = true
		if p, ok := prev[slot]; ok && i >= 3 {
			d := int64(a) - int64(p)
			// Each sub-stream must advance by its own constant stride
			// (modulo region wrap).
			if d != []int64{320, 640, 1280}[slot] && d < 0 {
				// wrap is allowed
				continue
			}
			if d != []int64{320, 640, 1280}[slot] {
				t.Fatalf("slot %d stride %d", slot, d)
			}
		}
		prev[slot] = a
	}
	if len(seen) < 2900 {
		t.Fatalf("strides >= block size must touch a new block nearly every access; got %d blocks", len(seen))
	}
}

func TestChaseComponentFullPeriod(t *testing.T) {
	// The LCG walk must visit every block in the region exactly once
	// per period (Hull–Dobell full-period property).
	const bits = 10
	c := newChase(0, bits)
	r := newRNG(3)
	c.reset(r)
	seen := make(map[memaddr.Addr]bool, 1<<bits)
	for i := 0; i < 1<<bits; i++ {
		a, _ := c.next(r)
		b := a.Block()
		if seen[b] {
			t.Fatalf("block %v revisited before full period at step %d", b, i)
		}
		seen[b] = true
	}
	if len(seen) != 1<<bits {
		t.Fatalf("visited %d blocks, want %d", len(seen), 1<<bits)
	}
}

func TestChaseComponentStaysInRegion(t *testing.T) {
	c := newChase(regionBase(0), 12)
	r := newRNG(5)
	c.reset(r)
	lo, hi := regionBase(0), regionBase(0)+memaddr.Addr(c.footprint())
	for i := 0; i < 10000; i++ {
		a, _ := c.next(r)
		if a < lo || a >= hi {
			t.Fatalf("chase escaped region: %v not in [%v, %v)", a, lo, hi)
		}
	}
}

func TestHotComponentStaysInRegion(t *testing.T) {
	c := newHot(0x1000, 4096)
	r := newRNG(9)
	for i := 0; i < 10000; i++ {
		a, _ := c.next(r)
		if a < 0x1000 || a >= 0x1000+4096 {
			t.Fatalf("hot escaped region: %v", a)
		}
	}
}

func TestZipfComponentSkew(t *testing.T) {
	c := newZipf(0, 1<<20, 2)
	r := newRNG(11)
	blocks := c.footprint() / memaddr.BlockSize
	lowHalf := 0
	const n = 20000
	for i := 0; i < n; i++ {
		a, _ := c.next(r)
		if uint64(a.Block()) < blocks/2 {
			lowHalf++
		}
	}
	// With skew 2 the low-rank half must receive well over half the mass.
	if float64(lowHalf)/n < 0.6 {
		t.Fatalf("zipf skew too weak: low half got %.2f of accesses", float64(lowHalf)/n)
	}
}

func TestRegionsDisjoint(t *testing.T) {
	for i := 0; i < 8; i++ {
		lo := regionBase(i)
		hi := lo + regionStride
		next := regionBase(i + 1)
		if next < hi {
			t.Fatalf("regions %d and %d overlap", i, i+1)
		}
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for name, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile map key %q != profile name %q", name, p.Name)
		}
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	bad := []*Profile{
		{Name: "", CPIVal: 1, Components: []ComponentSpec{hot(1, 14)}},
		{Name: "x", CPIVal: 0, Components: []ComponentSpec{hot(1, 14)}},
		{Name: "x", CPIVal: 1},
		{Name: "x", CPIVal: 1, WriteFrac: 2, Components: []ComponentSpec{hot(1, 14)}},
		{Name: "x", CPIVal: 1, Components: []ComponentSpec{hot(0, 14)}},
		{Name: "x", CPIVal: 1, Components: []ComponentSpec{hot(1, 50)}},
		{Name: "x", CPIVal: 1, Components: []ComponentSpec{{Kind: KindStrided, Weight: 1, SizeLog2: 20}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestBenchmarkNamesComplete(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 11 {
		t.Fatalf("got %d benchmarks, want 11", len(names))
	}
	for _, n := range names {
		if n == "mix" {
			continue
		}
		if _, err := ProfileByName(n); err != nil {
			t.Errorf("benchmark %q has no profile: %v", n, err)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSourceDeterministic(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "pmf"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(p, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(p, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ra, rb trace.Record
		for i := 0; i < 5000; i++ {
			a.Next(&ra)
			b.Next(&rb)
			if ra != rb {
				t.Fatalf("%s: record %d diverged: %+v vs %+v", name, i, ra, rb)
			}
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	p, _ := ProfileByName("mcf")
	a, _ := New(p, 16, 1)
	b, _ := New(p, 16, 2)
	var ra, rb trace.Record
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if ra == rb {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical records", same)
	}
}

func TestSourceRejectsBadScale(t *testing.T) {
	p, _ := ProfileByName("mcf")
	if _, err := New(p, 3, 1); err == nil {
		t.Fatal("scale 3 accepted")
	}
	if _, err := New(p, 0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestSourceWriteFraction(t *testing.T) {
	p, _ := ProfileByName("lbm") // WriteFrac 0.45
	s, _ := New(p, 16, 1)
	var r trace.Record
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		s.Next(&r)
		if r.Write {
			writes++
		}
	}
	got := float64(writes) / n
	if got < 0.40 || got > 0.50 {
		t.Fatalf("write fraction %.3f, want ~0.45", got)
	}
}

func TestSourceMeanGap(t *testing.T) {
	p, _ := ProfileByName("bwaves") // MeanGap 2
	s, _ := New(p, 16, 1)
	var r trace.Record
	var total uint64
	const n = 50000
	for i := 0; i < n; i++ {
		s.Next(&r)
		total += uint64(r.Gap)
	}
	mean := float64(total) / n
	if mean < 1.5 || mean > 2.5 {
		t.Fatalf("mean gap %.2f, want ~2", mean)
	}
}

func TestSourcesSPECDisjointPerCore(t *testing.T) {
	srcs, err := Sources("mcf", 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	var recs [4]trace.Record
	for i := 0; i < 2000; i++ {
		for c := range srcs {
			srcs[c].Next(&recs[c])
		}
		// Identical streams (same seed) offset by disjoint address spaces.
		for c := 1; c < 4; c++ {
			want := recs[0].Addr + memaddr.Addr(uint64(c)*coreSpacing)
			if recs[c].Addr != want {
				t.Fatalf("core %d addr %v, want offset copy %v", c, recs[c].Addr, want)
			}
		}
	}
}

func TestSourcesParallelAppShareAddressSpace(t *testing.T) {
	srcs, err := Sources("blas", 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Collect block sets per core; parallel apps must overlap heavily.
	sets := make([]map[memaddr.Addr]bool, 4)
	var r trace.Record
	for c, s := range srcs {
		sets[c] = map[memaddr.Addr]bool{}
		for i := 0; i < 20000; i++ {
			s.Next(&r)
			sets[c][r.Addr.Block()] = true
		}
	}
	shared := 0
	for b := range sets[0] {
		if sets[1][b] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("parallel app cores share no blocks")
	}
}

func TestSourcesMixDistinct(t *testing.T) {
	srcs, err := Sources("mix", 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range srcs {
		names[s.Name()] = true
	}
	if len(names) != 8 {
		t.Fatalf("mix uses %d distinct benchmarks, want 8", len(names))
	}
}

// The layout names each distinct stream once: one per SPEC benchmark,
// one per core for the parallel applications, and mix's eight SPEC
// streams repeating beyond eight cores.
func TestLayoutStreams(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cores   int
		streams int
		spaced  bool // core c at c*coreSpacing, else every core at 0
	}{
		{"mcf", 8, 1, true},
		{"computebound", 4, 1, true},
		{"pmf", 8, 8, false},
		{"blas", 3, 3, false},
		{"mix", 4, 4, true},
		{"mix", 12, 8, true},
	} {
		l, err := NewLayout(tc.name, tc.cores, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Streams) != tc.streams || len(l.Cores) != tc.cores {
			t.Fatalf("%s at %d cores: %d streams over %d cores, want %d over %d",
				tc.name, tc.cores, len(l.Streams), len(l.Cores), tc.streams, tc.cores)
		}
		for c, pl := range l.Cores {
			want := memaddr.Addr(0)
			if tc.spaced {
				want = memaddr.Addr(uint64(c) * coreSpacing)
			}
			if pl.Offset != want || pl.Stream != c%tc.streams {
				t.Fatalf("%s core %d placed on stream %d at %v, want %d at %v",
					tc.name, c, pl.Stream, pl.Offset, c%tc.streams, want)
			}
		}
	}
	if _, err := NewLayout("nonesuch", 2, 16, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSourcesErrors(t *testing.T) {
	if _, err := Sources("nonesuch", 8, 16, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Sources("mcf", 0, 16, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestCapture(t *testing.T) {
	p, _ := ProfileByName("astar")
	s, _ := New(p, 16, 1)
	tr := Capture(s, 1000)
	if len(tr.Records) != 1000 {
		t.Fatalf("captured %d records", len(tr.Records))
	}
	if tr.Name != "astar" || tr.CPI != 2.8 {
		t.Fatalf("trace metadata %q cpi=%v", tr.Name, tr.CPI)
	}
}

func TestTraceSourceReplay(t *testing.T) {
	p, _ := ProfileByName("astar")
	s, _ := New(p, 16, 1)
	tr := Capture(s, 100)
	ts := FromTrace(tr)
	var r trace.Record
	for i := 0; i < 100; i++ {
		if !ts.Next(&r) {
			t.Fatalf("trace source ended early at %d", i)
		}
		if r != tr.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if ts.Next(&r) {
		t.Fatal("trace source did not end")
	}
	ts.Rewind()
	if !ts.Next(&r) || r != tr.Records[0] {
		t.Fatal("rewind failed")
	}
}

func TestL1HitRateProxy(t *testing.T) {
	// The components sized <= 2^14 (scaled: 2^10) should dominate; as a
	// proxy for the paper's ~91.5% average L1 hit rate, check that for
	// every benchmark a large majority of accesses fall in hot regions
	// or repeat a recently used block.
	for _, name := range SPECNames {
		p, _ := ProfileByName(name)
		hotW, total := 0.0, 0.0
		for _, c := range p.Components {
			if c.SizeLog2 <= 15 {
				hotW += c.Weight
			}
			// Streams get 7/8 spatial hits.
			if c.Kind == KindStream {
				hotW += c.Weight * 7 / 8
			}
			total += c.Weight
		}
		if frac := hotW / total; frac < 0.72 {
			t.Errorf("%s: only %.2f of accesses have L1-level locality", name, frac)
		}
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("mcf") != hashName("mcf") {
		t.Fatal("hashName unstable")
	}
	if hashName("mcf") == hashName("lbm") {
		t.Fatal("hashName collision between benchmark names")
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	f := func(seedRaw uint16) bool {
		p, _ := ProfileByName("lbm")
		big, _ := New(p, 1, uint64(seedRaw))
		small, _ := New(p, 64, uint64(seedRaw))
		sb := trace.ComputeStats(Capture(big, 4000).Records)
		ss := trace.ComputeStats(Capture(small, 4000).Records)
		// The scaled-down workload must span a smaller address range
		// within each region.
		return ss.UniqueBlocks <= sb.UniqueBlocks+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
