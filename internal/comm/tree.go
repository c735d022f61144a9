package comm

// The binomial tree as data. Every collective in this package — the
// dense engine (dense.go), the hierarchy's island and leader
// exchanges (hier.go), the codecs' pair merge, max and integer sum
// (compress.go, quant.go) — is one tree walked the same two ways, by
// the one walk in dense.go (up, down) with a different reduction:
//
//	up:   receive from each child in order, fold, send to the parent
//	down: receive from the parent, send to each child in reverse order
//
// The tree is laid over the positions 0 … q−1 of a member list. At
// distance step = 1, 2, 4, … a position that is an odd multiple of step
// hands its subtree to the position step below it and is done; the even
// multiples take the position step above them, when the list has one,
// as their next child. Position 0 is the root. binomial is the only
// place that arithmetic is spelled out; a sched is its result for one
// member, in group ranks, so no walk computes a peer.

// sched is one member's place in the binomial tree over a member list:
// who it receives from and sends to, as group ranks.
type sched struct {
	rank     int   // this member
	parent   int   // −1 at the root (the list's first member)
	children []int // ascending step order: the order their partials are folded in
	span     int   // members in this subtree, itself included
	partner  int   // the top edge's other end (root ↔ its last child), else −1

	// The dense sum's state for this member of this tree (dense.go),
	// touched only by the goroutine walking it.
	dense dense
}

// solitary reports whether the tree is this member alone.
func (s *sched) solitary() bool { return s.parent < 0 && len(s.children) == 0 }

// writesBack reports whether this member's fold of child k is the
// write-back of the sum: the root's last fold, after which its segment
// is final.
func (s *sched) writesBack(k int) bool { return s.parent < 0 && k == len(s.children)-1 }

// binomial returns the parent (−1 at the root) and the children, in
// ascending step order, of position i among q.
func binomial(q, i int) (parent int, children []int) {
	for step := 1; step < q; step <<= 1 {
		if i%(2*step) != 0 {
			return i - step, children
		}
		if i+step < q {
			children = append(children, i+step)
		}
	}
	return -1, children
}

// newTree lays the binomial tree over members and returns every
// member's schedule, indexed by position in the list.
func newTree(members []int) []sched {
	t := make([]sched, len(members))
	// A child sits above its parent in the list, so a descending sweep
	// meets every subtree's size before the parent that adds it.
	for i := len(members) - 1; i >= 0; i-- {
		parent, children := binomial(len(members), i)
		s := &t[i]
		s.rank, s.parent, s.children, s.span, s.partner = members[i], -1, children, 1, -1
		s.dense.held = make([][]float64, len(children))
		if parent >= 0 {
			s.parent = members[parent]
		}
		for k, c := range children {
			s.span += t[c].span
			children[k] = members[c]
			if i == 0 && k == len(children)-1 {
				s.partner, t[c].partner = members[c], members[0]
			}
		}
	}
	return t
}
