package comm

import (
	"slices"
	"testing"
)

// TestBinomialSchedule holds the schedule-as-data against the walks it
// replaced. The oracle is the index arithmetic every collective used to
// spell out in place — ascending steps for the reduce, descending steps
// for the broadcast — and for every list length up to 33 (two past a
// power of two) each position's schedule must name the same peers in the
// same order. On top of that: the tree spans the list, and newTree
// translates positions to the members' ranks and sizes every subtree.
func TestBinomialSchedule(t *testing.T) {
	for q := 1; q <= 33; q++ {
		members := make([]int, q)
		for i := range members {
			members[i] = 3*i + 1
		}
		tree := newTree(members)
		parents := make([]int, q) // position → times named as a child
		for i := 0; i < q; i++ {
			// Reduce walk: receive from i+step while i is an even multiple,
			// send to i−step at the first odd one.
			sendUp := -1
			var recvUp []int
			for step := 1; step < q; step <<= 1 {
				if i%(2*step) != 0 {
					sendUp = i - step
					break
				}
				if peer := i + step; peer < q {
					recvUp = append(recvUp, peer)
				}
			}
			// Broadcast walk: one receive, then the sends.
			top := 1
			for top < q {
				top <<= 1
			}
			recvDown := -1
			var sendDown []int
			for step := top >> 1; step >= 1; step >>= 1 {
				switch {
				case i%(2*step) == 0:
					if peer := i + step; peer < q {
						sendDown = append(sendDown, peer)
					}
				case i%(2*step) == step:
					if len(sendDown) > 0 {
						t.Fatalf("q=%d i=%d: the oracle forwards before it receives", q, i)
					}
					recvDown = i - step
				}
			}

			parent, children := binomial(q, i)
			if parent != sendUp || parent != recvDown {
				t.Errorf("q=%d i=%d: parent %d, the walks send up to %d and receive down from %d", q, i, parent, sendUp, recvDown)
			}
			if (parent < 0) != (i == 0) {
				t.Errorf("q=%d i=%d: parent %d; exactly position 0 is the root", q, i, parent)
			}
			if !slices.Equal(children, recvUp) {
				t.Errorf("q=%d i=%d: children %v, the reduce walk receives from %v", q, i, children, recvUp)
			}
			if !slices.IsSorted(children) {
				t.Errorf("q=%d i=%d: children %v not in ascending step order", q, i, children)
			}
			down := slices.Clone(children)
			slices.Reverse(down)
			if !slices.Equal(down, sendDown) {
				t.Errorf("q=%d i=%d: children reversed %v, the broadcast walk sends to %v", q, i, down, sendDown)
			}
			for _, c := range children {
				parents[c]++
				if p, _ := binomial(q, c); p != i {
					t.Errorf("q=%d: %d lists %d as a child, whose parent is %d", q, i, c, p)
				}
			}

			s := tree[i]
			wantParent := -1
			if parent >= 0 {
				wantParent = members[parent]
			}
			wantChildren := make([]int, len(children))
			for k, c := range children {
				wantChildren[k] = members[c]
			}
			if s.rank != members[i] || s.parent != wantParent || !slices.Equal(s.children, wantChildren) {
				t.Errorf("q=%d i=%d: sched %+v, want rank %d parent %d children %v", q, i, s, members[i], wantParent, wantChildren)
			}
			if s.solitary() != (q == 1) {
				t.Errorf("q=%d i=%d: solitary() = %v", q, i, s.solitary())
			}
		}
		// Spanning: one root, every other position the child of exactly one
		// parent; with parent < child everywhere that is a tree over all q.
		for i, n := range parents {
			if want := min(i, 1); n != want {
				t.Errorf("q=%d: position %d is named as a child %d times, want %d", q, i, n, want)
			}
		}
		// span counts the subtree: 1 + the children's, q at the root.
		at := make(map[int]int, q) // rank → position
		for i, r := range members {
			at[r] = i
		}
		for i, s := range tree {
			sum := 1
			for _, c := range s.children {
				if at[c] <= i {
					t.Errorf("q=%d: child %d of position %d does not sit above it", q, at[c], i)
				}
				sum += tree[at[c]].span
			}
			if s.span != sum {
				t.Errorf("q=%d i=%d: span %d, subtree holds %d", q, i, s.span, sum)
			}
		}
		if tree[0].span != q {
			t.Errorf("q=%d: root spans %d", q, tree[0].span)
		}
	}
}
