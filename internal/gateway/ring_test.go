package gateway

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return addrs
}

// TestRingDeterministicAffinity pins the routing invariant the whole
// tier rests on: the same key maps to the same backend on every ring
// built over the same membership, whatever the construction order — so
// every gateway replica (and every rebuild after a health flap that
// reverts) agrees on shard ownership with no coordination.
func TestRingDeterministicAffinity(t *testing.T) {
	addrs := ringAddrs(5)
	r1 := newRing(addrs)
	shuffled := append([]string(nil), addrs...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	r2 := newRing(shuffled)
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		o1, o2 := r1.Owners(key, 1)[0], r2.Owners(key, 1)[0]
		if o1 != o2 {
			t.Fatalf("key %x owned by %s on one ring, %s on a shuffled-membership ring", key, o1, o2)
		}
		counts[o1]++
	}
	// Load spread sanity: every backend owns a non-trivial share. With 128
	// vnodes × 5 backends the max/min imbalance stays well under 3x.
	for _, a := range addrs {
		if counts[a] < 10000/(3*len(addrs)) {
			t.Errorf("backend %s owns only %d/10000 keys — vnode spread is broken: %v", a, counts[a], counts)
		}
	}
}

// TestRingRemovalStability is the consistent-hash stability test:
// removing one backend remaps ONLY the keys that backend owned; every
// other key keeps its owner. This is what preserves the surviving
// backends' compile caches through a membership change — a modulo hash
// would reshuffle nearly everything.
func TestRingRemovalStability(t *testing.T) {
	addrs := ringAddrs(4)
	full := newRing(addrs)
	removed := addrs[2]
	var survivors []string
	for _, a := range addrs {
		if a != removed {
			survivors = append(survivors, a)
		}
	}
	partial := newRing(survivors)
	rng := rand.New(rand.NewSource(99))
	var remapped, kept int
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		before, after := full.Owners(key, 1)[0], partial.Owners(key, 1)[0]
		if before != removed {
			kept++
			if after != before {
				t.Fatalf("key %x moved %s→%s though %s was the backend removed", key, before, after, removed)
			}
		} else {
			remapped++
			if after == removed {
				t.Fatalf("key %x still owned by removed backend", key)
			}
			// The failover target is exactly the next distinct owner on the
			// full ring: hedging and failover agree with ring removal.
			if want := full.Owners(key, 2); len(want) > 1 && after != want[1] {
				t.Fatalf("key %x failed over to %s, ring successor is %s", key, after, want[1])
			}
		}
	}
	if remapped == 0 || kept == 0 {
		t.Fatalf("degenerate sample: remapped=%d kept=%d", remapped, kept)
	}
}

// TestRingOwners pins the failover ordering contract: Owners returns
// distinct backends, the first is the owner, and asking for more than
// the membership returns all of it.
func TestRingOwners(t *testing.T) {
	addrs := ringAddrs(3)
	r := newRing(addrs)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		key := rng.Uint64()
		owners := r.Owners(key, 10)
		if len(owners) != len(addrs) {
			t.Fatalf("Owners(%x) = %v, want all %d backends", key, owners, len(addrs))
		}
		if owner := r.Owners(key, 1)[0]; owners[0] != owner {
			t.Fatalf("Owners(n=10)[0] %s != Owners(n=1)[0] %s", owners[0], owner)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%x) repeats %s: %v", key, o, owners)
			}
			seen[o] = true
		}
	}
	if got := newRing(nil).Owners(42, 1); got != nil {
		t.Errorf("empty ring owners = %v, want nil", got)
	}
	if got := r.Owners(42, 0); got != nil {
		t.Errorf("Owners(n=0) = %v, want nil", got)
	}
}
