// Package geom provides the computational-geometry substrate for the
// Euclidean spanner constructions: the one Euclidean distance routine
// (Dist), axis-aligned bounding boxes, a fair split tree
// (Callahan–Kosaraju), the well-separated pair decomposition (WSPD) built
// on it, and the grid pair enumerator that produces the distance buckets
// of the streamed greedy candidate supply. The enumerator lays one dense
// grid over a flat copy of the coordinates, with cells of about 1/12 of
// the range's upper edge in 1-D and 2-D (see GridEnumerator for the cell
// rule), so a bucket costs about its own pair count rather than n^2; its
// Histogram is the supply's counting pass. Works in any dimension d >= 1.
package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned box given by per-dimension [Lo, Hi] intervals.
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns the degenerate box at point p.
func NewRect(p []float64) Rect {
	lo := append([]float64(nil), p...)
	hi := append([]float64(nil), p...)
	return Rect{Lo: lo, Hi: hi}
}

// Extend grows r to include point p.
func (r *Rect) Extend(p []float64) {
	for k := range p {
		if p[k] < r.Lo[k] {
			r.Lo[k] = p[k]
		}
		if p[k] > r.Hi[k] {
			r.Hi[k] = p[k]
		}
	}
}

// LongestSide returns the dimension and length of the box's longest side.
func (r Rect) LongestSide() (dim int, length float64) {
	for k := range r.Lo {
		if l := r.Hi[k] - r.Lo[k]; l > length {
			dim, length = k, l
		}
	}
	return dim, length
}

// Diameter returns the box diagonal length, an upper bound on the diameter
// of any point set inside.
func (r Rect) Diameter() float64 {
	var s float64
	for k := range r.Lo {
		d := r.Hi[k] - r.Lo[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// Center returns the box center.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for k := range c {
		c[k] = (r.Lo[k] + r.Hi[k]) / 2
	}
	return c
}

// Dist returns the L2 distance between points a and b, which share one
// dimension. It is the one Euclidean distance routine: metric.Euclidean.Dist
// and GridEnumerator both call it, so a pair's weight is bit-identical
// however it is computed. The explicit conversion rounds each square before
// the sum; without it the Go spec lets a compiler fuse the multiply-add,
// and a fused sum can differ in the last bit.
func Dist(a, b []float64) float64 {
	var s float64
	for k, x := range a {
		d := x - b[k]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// SplitTree is a fair split tree over a point set: each internal node splits
// its points at the midpoint of the longest side of their bounding box.
type SplitTree struct {
	Pts   [][]float64
	Root  *SplitNode
	nodes int
}

// SplitNode is one node of a split tree. Leaves hold exactly one point.
type SplitNode struct {
	// Idx are the indices (into the tree's point slice) covered by this node.
	Idx []int
	// Box is the bounding box of the node's points.
	Box Rect
	// Rep is the index of a representative point (the first one).
	Rep int
	// Left, Right are nil for leaves.
	Left, Right *SplitNode
}

// IsLeaf reports whether the node holds a single point.
func (n *SplitNode) IsLeaf() bool { return n.Left == nil }

// BuildSplitTree constructs a fair split tree over pts. All points must
// share one dimension; duplicate points are rejected because they make the
// midpoint split non-terminating.
func BuildSplitTree(pts [][]float64) (*SplitTree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("geom: no points")
	}
	d := len(pts[0])
	seen := make(map[string]bool, len(pts))
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("geom: point %d has dim %d, want %d", i, len(p), d)
		}
		key := fmt.Sprint(p)
		if seen[key] {
			return nil, fmt.Errorf("geom: duplicate point %v", p)
		}
		seen[key] = true
	}
	t := &SplitTree{Pts: pts}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	t.Root = t.build(idx)
	return t, nil
}

func (t *SplitTree) build(idx []int) *SplitNode {
	t.nodes++
	box := NewRect(t.Pts[idx[0]])
	for _, i := range idx[1:] {
		box.Extend(t.Pts[i])
	}
	n := &SplitNode{Idx: idx, Box: box, Rep: idx[0]}
	if len(idx) == 1 {
		return n
	}
	dim, _ := box.LongestSide()
	mid := (box.Lo[dim] + box.Hi[dim]) / 2
	var left, right []int
	for _, i := range idx {
		if t.Pts[i][dim] <= mid {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	// With distinct points and the longest-side midpoint, both halves are
	// non-empty except for pathological ties; guard by moving one point.
	if len(left) == 0 {
		left, right = right[:1], right[1:]
	} else if len(right) == 0 {
		right, left = left[:1], left[1:]
	}
	n.Left = t.build(left)
	n.Right = t.build(right)
	return n
}

// Nodes reports the number of nodes in the tree.
func (t *SplitTree) Nodes() int { return t.nodes }

// Pair is one well-separated pair: every point of A is at distance at least
// s * max(diam(A), diam(B)) from every point of B, where s is the
// separation the WSPD was built with.
type Pair struct {
	A, B *SplitNode
}

// WSPD computes a well-separated pair decomposition with separation s > 0:
// a set of pairs such that every unordered pair of distinct points is
// covered by exactly one pair. The number of pairs is O(s^d * n) for fixed
// dimension d.
func (t *SplitTree) WSPD(s float64) []Pair {
	var out []Pair
	var findPairs func(a, b *SplitNode)
	wellSeparated := func(a, b *SplitNode) bool {
		r := math.Max(a.Box.Diameter(), b.Box.Diameter())
		// Distance between box centers minus radii lower-bounds the
		// inter-set distance; use it conservatively.
		d := Dist(a.Box.Center(), b.Box.Center()) - a.Box.Diameter()/2 - b.Box.Diameter()/2
		return d >= s*r
	}
	findPairs = func(a, b *SplitNode) {
		if wellSeparated(a, b) {
			out = append(out, Pair{A: a, B: b})
			return
		}
		// Split the node with the larger box.
		if a.Box.Diameter() < b.Box.Diameter() {
			a, b = b, a
		}
		if a.IsLeaf() {
			// Both are leaves at the same point? Impossible with distinct
			// points; but two distinct single points are always separated
			// for any finite s only if distance >= 0 = s*0. diam = 0 so
			// wellSeparated(a,b) held above. Unreachable; guard anyway.
			out = append(out, Pair{A: a, B: b})
			return
		}
		findPairs(a.Left, b)
		findPairs(a.Right, b)
	}
	var selfPairs func(n *SplitNode)
	selfPairs = func(n *SplitNode) {
		if n.IsLeaf() {
			return
		}
		selfPairs(n.Left)
		selfPairs(n.Right)
		findPairs(n.Left, n.Right)
	}
	selfPairs(t.Root)
	return out
}
