package htmlparse

// nodeArena hands out Node values from slabs, replacing one heap
// allocation per node with one per slab. The first slab is sized from
// the input (firstSlab) and each later one doubles, up to arenaChunk
// nodes, so a small page neither zeroes nor GC-scans hundreds of unused
// nodes while a large one still allocates once per arenaChunk nodes.
// Slabs are owned by the document built from them (its nodes point into
// the slab arrays), so an arena is per-parse and never recycled:
// Parser.reset drops any partially used slab rather than sharing a
// backing array between two documents, which would couple their
// lifetimes under the GC.
type nodeArena struct {
	slab  []Node
	next  int // size of the next slab
	nodes int // total nodes served, for the htmlparse_arena_nodes_total metric
	slabs int // total slabs allocated
}

const (
	arenaChunk    = 256
	arenaMinChunk = 32
)

// firstSlab sizes the first slab for an input of n bytes: a node per
// twelve bytes, plus the nodes every document has, within
// [arenaMinChunk, arenaChunk].
func firstSlab(n int) int { return min(max(n/12+16, arenaMinChunk), arenaChunk) }

func (a *nodeArena) new() *Node {
	if len(a.slab) == 0 {
		a.slab = make([]Node, a.next)
		a.next = min(2*a.next, arenaChunk)
		a.slabs++
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	a.nodes++
	return n
}
