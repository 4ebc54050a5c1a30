package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"

	"dpuv2/internal/dag"
)

// ring is a consistent-hash ring over backend addresses. Each backend
// owns vnodes points on a uint64 circle; a key is owned by the backend
// of the first point at or clockwise-after it. Consistent hashing is
// what makes the sharded tier worth building: each backend's compile
// cache keys on the graph fingerprint, so routing a fingerprint to a
// stable backend keeps it hot for its shard, and removing one backend
// remaps ONLY the ranges that backend owned (its keys fail over to
// their clockwise successors) instead of reshuffling the whole fleet's
// working set.
//
// Point placement is a pure function of the backend address and the
// vnode index (sha256, like the fingerprint itself), so every gateway
// replica — and every test — agrees on the mapping with no coordination.
type ring struct {
	points []ringPoint // sorted by hash
	addrs  []string    // distinct members, original order
}

type ringPoint struct {
	hash uint64
	addr string
}

// vnodePoint hashes one virtual node of a backend onto the circle.
func vnodePoint(addr string, i int) uint64 {
	sum := sha256.Sum256([]byte(addr + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// vnodes is the virtual-node count per backend: enough that two backends
// split the key space within a few percent, cheap enough that ring
// rebuilds are microseconds.
const vnodes = 128

// newRing builds a ring over addrs with vnodes points per backend.
// An empty addrs yields an empty ring (Owners returns nil).
func newRing(addrs []string) *ring {
	r := &ring{addrs: append([]string(nil), addrs...)}
	r.points = make([]ringPoint, 0, len(addrs)*vnodes)
	for _, a := range addrs {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: vnodePoint(a, i), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions (vanishingly rare) break ties by address so the
		// ring is deterministic whatever the insertion order.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Key maps a graph fingerprint onto the circle. The fingerprint is
// already a uniform 256-bit content hash; its first eight bytes are the
// ring coordinate.
func ringKey(fp dag.Fingerprint) uint64 {
	return binary.BigEndian.Uint64(fp[:8])
}

// Owners returns up to n DISTINCT backends in clockwise order starting
// at key's owner: the shard owner first, then the failover/hedge
// successors in the order the consistent hash fails the shard over.
func (r *ring) Owners(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.addrs) {
		n = len(r.addrs)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			owners = append(owners, p.addr)
		}
	}
	return owners
}
