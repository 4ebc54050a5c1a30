package dag

// Headroom reports the unused arena capacity, for tests that check bulk
// builders presize exactly.
func (g *Graph) Headroom() int { return cap(g.nodes) - len(g.nodes) }
