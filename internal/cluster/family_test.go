package cluster

import (
	"net/http"
	"testing"

	"redhip/internal/serve"
)

// familyVariants are specs of one trace family: testSpec(n) under
// other schemes, inclusion policies and the prefetcher. The last one is
// kept back for the re-home.
func familyVariants(n int) []serve.Spec {
	vary := func(f func(*serve.Spec)) serve.Spec {
		s := testSpec(n)
		f(&s)
		return s
	}
	return []serve.Spec{
		testSpec(n),
		vary(func(s *serve.Spec) { s.Schemes = []string{"base"} }),
		vary(func(s *serve.Spec) { s.Schemes = []string{"redhip", "oracle", "phased"} }),
		vary(func(s *serve.Spec) { s.Inclusion = "hybrid" }),
		vary(func(s *serve.Spec) { s.Inclusion = "exclusive" }),
		vary(func(s *serve.Spec) { s.Prefetch = true }),
		vary(func(s *serve.Spec) { s.Inclusion, s.Prefetch, s.Schemes = "hybrid", true, nil }),
	}
}

// TestRouterPlacesByFamily: every variant of one trace family lands on
// the ring owner of the family key, although their canonical keys
// would spread over the replicas; and a job re-homed off a dead owner
// goes to the family key's owner in the shrunken ring, not its
// canonical key's.
func TestRouterPlacesByFamily(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	full := NewRing(names, 0)
	canonical := func(spec serve.Spec) string {
		norm, err := spec.Normalized()
		if err != nil {
			t.Fatalf("normalise %+v: %v", spec, err)
		}
		return norm.CanonicalKey()
	}
	// Pick a family on which both halves of the test discriminate: the
	// variants' canonical keys have more than one owner, and after the
	// family owner dies the held-back variant's canonical key and the
	// family key have different owners.
	var variants []serve.Spec
	var family, owner string
	var shrunk *Ring
	for n := 0; n < 200 && variants == nil; n++ {
		vs := familyVariants(n)
		fam := familyOf(t, vs[0])
		own := full.Owner(fam)
		spread := map[string]bool{}
		for _, v := range vs {
			spread[full.Owner(canonical(v))] = true
		}
		var rest []string
		for _, name := range names {
			if name != own {
				rest = append(rest, name)
			}
		}
		r := NewRing(rest, 0)
		if len(spread) > 1 && r.Owner(fam) != r.Owner(canonical(vs[len(vs)-1])) {
			variants, family, owner, shrunk = vs, fam, own, r
		}
	}
	if variants == nil {
		t.Fatal("no family among 200 separates family from canonical placement")
	}

	rt, url := newTestRouter(t)
	fakes := map[string]*fakeReplica{}
	for _, name := range names {
		fakes[name] = newFakeReplica(t, name)
		if code, body := register(t, url, fakes[name], "test-v1"); code != http.StatusOK {
			t.Fatalf("register %s = %d (%s)", name, code, body)
		}
	}
	waitFor(t, "three replicas in ring", func() bool { return rt.members.Ring().Size() == 3 })

	for i, spec := range variants[:len(variants)-1] {
		resp, sub := submitJob(t, url, spec)
		if resp.StatusCode != http.StatusAccepted || sub.Deduped {
			t.Fatalf("variant %d: submit = %d, deduped %v", i, resp.StatusCode, sub.Deduped)
		}
		if got := resp.Header.Get(ReplicaHeader); got != owner {
			t.Fatalf("variant %d placed on %q, family owner is %q", i, got, owner)
		}
		if st := waitRouted(t, url, sub.ID, serve.StateDone); st.Replica != owner {
			t.Fatalf("variant %d finished on %q, family owner is %q", i, st.Replica, owner)
		}
	}
	if got := len(fakes[owner].executed()); got != len(variants)-1 {
		t.Fatalf("family owner executed %d jobs, want %d", got, len(variants)-1)
	}

	// The re-home: the held-back variant stalls on the family owner,
	// which dies.
	for _, f := range fakes {
		f.mode.Store("stall")
	}
	resp, sub := submitJob(t, url, variants[len(variants)-1])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held-back variant: submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ReplicaHeader); got != owner {
		t.Fatalf("held-back variant placed on %q, family owner is %q", got, owner)
	}
	fakes[owner].srv.Close()
	waitFor(t, "family owner dead", func() bool { return rt.members.get(owner).stateNow() == MemberDead })
	for name, f := range fakes {
		if name != owner {
			f.mode.Store("done")
		}
	}
	st := waitRouted(t, url, sub.ID, serve.StateDone)
	if want := shrunk.Owner(family); st.Replica != want || st.Rehomes < 1 {
		t.Fatalf("re-homed job finished on %q after %d re-homes, want the family owner %q of the shrunken ring",
			st.Replica, st.Rehomes, want)
	}
}
