// Package cluster scales redhip-serve past one process: a stateless
// HTTP router (cmd/redhip-router) consistent-hashes each spec's trace
// family — the SHA-256[:8] canonical key internal/serve computes, taken
// with schemes, inclusion and prefetch cleared — across N replicas, so
// per-spec dedup, tracestore/snapshot-cache affinity and run reuse
// fall out of the hash with no shared state. Replicas register
// themselves and are admitted to the ring only while /readyz passes;
// when a replica is marked dead its key ranges re-hash to the survivors
// and the router re-submits orphaned jobs to the new owners — safe
// because execution is idempotent by spec key: the simulation is
// deterministic, so a re-executed spec produces bit-identical results,
// and a spec that already completed elsewhere resolves from the
// router's result cache instead of running again.
//
// Like internal/serve, cluster is a serving-side package
// (analysis.ServingPackages): wall-clock reads, goroutines and
// timer-driven control flow are its normal life.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per member. 160 points per
// member keeps the largest/smallest arc ratio tight enough that sampled
// spec keys spread within ~10% of uniform across 3-8 replicas while
// the ring stays small enough to rebuild on every membership change.
const DefaultVnodes = 160

// Ring is an immutable consistent-hash ring over member names. Lookups
// hash the key to a point and walk clockwise to the first virtual
// node; membership changes build a new Ring (the router swaps it
// atomically), so a Ring itself needs no locking.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted member names
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the given members with vnodes virtual
// nodes each (vnodes <= 0 selects DefaultVnodes). Member order does not
// matter: placement depends only on the member *set*, so two routers
// that agree on membership agree on every key's owner.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		points:  make([]ringPoint, 0, len(members)*vnodes),
		members: append([]string(nil), members...),
	}
	sort.Strings(r.members)
	for _, m := range r.members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member name so the
		// winner is still independent of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	// First point with hash > h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// hash64 maps a string onto the ring: FNV-1a for mixing the bytes,
// then a splitmix64 finaliser so short, similar strings (spec keys,
// "name#vnode" labels) still disperse across the full 64-bit space.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
