package geom

import (
	"math"

	"repro/internal/graph"
)

// GridEnumerator enumerates the point pairs of a Euclidean point set whose
// distance falls in a weight range [lo, hi), using one dense uniform grid
// per call. Pairs never evaluates a pair whose cells are farther apart than
// hi, nor, in low dimension, most pairs whose cells are closer than lo.
//
// The cell rule. In d <= 3 the cell side is about hi/R (R = 12 in d <= 2,
// 6 in d = 3), so the cell pairs that can hold an in-range pair hug the
// annulus [lo, hi) and a bucket's enumeration costs about its own pair
// count, not n^2. In higher dimension the offset neighbourhood grows like
// (2R+1)^d, so R = 1: cells of side hi, the classic 3^d scheme. Either
// way the side is then raised until the grid holds at most cellsPerPoint
// cells per point (and maxCellsPerDim per axis), so clustered or widely
// spread inputs get coarser cells, never a sparse grid. The points are
// counting-sorted into the cells with their coordinates copied in cell
// order, and a neighbour cell is found by index arithmetic: the live cells
// of one neighbouring row are contiguous, so each is one contiguous run of
// points.
//
// Weights come from Dist, the routine metric.Euclidean.Dist calls, over
// the same coordinates, so they are bit-identical to the metric's; the grid
// only decides which pairs get evaluated. hi = +Inf, and spans too wide to
// index, take the all-pairs branch.
type GridEnumerator struct {
	n, dim int
	// xs holds the coordinates flat: point i at xs[i*dim : (i+1)*dim].
	xs []float64
	// boxLo is the per-dimension lower corner, boxSpan the extents.
	boxLo, boxSpan []float64
	// The grid of the current call, reused across calls: the cells per
	// axis, each point's cell, the CSR cell offsets (cell c holds the
	// positions start[c] to start[c+1]-1), each position's point id and
	// coordinates in cell order, the live neighbour rows with their
	// displacements (dim-1 per row) in rowPre, and the scanned cell's
	// coordinates.
	dims   []int
	cellOf []int32
	start  []int32
	member []int32
	cxs    []float64
	rows   []gridRow
	rowPre []int
	at     []int
}

// gridRow is one live row of neighbour cells: a displacement of the cell
// index along every axis but the last (lexicographically non-negative,
// kept in rowPre), the linear index delta it makes, and the band of
// last-axis displacements whose cells can hold in-range pairs —
// [-far, -near] and [near, far], or only [max(near, 1), far] on the
// cell's own row (own), whose negative half is another cell's positive
// half. On the own row near = 0 also admits the cell's own pairs.
type gridRow struct {
	delta     int
	near, far int
	own       bool
}

// NewGridEnumerator builds a grid enumerator over pts, which must share
// one dimension. The coordinates are copied, so pts may change afterwards.
func NewGridEnumerator(pts [][]float64) *GridEnumerator {
	e := &GridEnumerator{n: len(pts)}
	if len(pts) == 0 {
		return e
	}
	e.dim = len(pts[0])
	e.xs = make([]float64, 0, e.n*e.dim)
	for _, p := range pts {
		e.xs = append(e.xs, p...)
	}
	e.boxLo = append([]float64(nil), pts[0]...)
	hi := append([]float64(nil), pts[0]...)
	for _, p := range pts[1:] {
		for k, c := range p {
			e.boxLo[k] = min(e.boxLo[k], c)
			hi[k] = max(hi[k], c)
		}
	}
	e.boxSpan = make([]float64, e.dim)
	for k := range hi {
		e.boxSpan[k] = hi[k] - e.boxLo[k]
	}
	return e
}

// maxCellsPerDim guards the float64 cell-coordinate computation: the
// quotient (c-boxLo)/cell carries relative error ~2^-52, so at q cells per
// axis the absolute error is ~q*2^-52 cells — with q capped at 2^25 that
// is < 2^-27 of a cell, far too small to ever shift a floor() across a
// boundary by more than the one-cell slack every neighbourhood bound
// already carries.
const maxCellsPerDim = 1 << 25

// cellsPerPoint caps the grid at this many cells per point.
const cellsPerPoint = 4

// minCell is the smallest cell side, which keeps the relative slack
// sufficient: subnormal squared differences can put a computed square an
// absolute (d+1)*2^-1074 off the true one, which exceeds the slack only
// for range edges below about 2^-525*sqrt(d+1). Such an edge is a small
// fraction of a 2^-520 cell, and there neither bound prunes a cell pair:
// every pair within one cell of another is kept, and every cell pair's
// maximum separation is at least one cell.
const minCell = 0x1p-520

// slack pads the squared cell-pair bounds against every relative rounding
// between a pair's true distance and its computed weight (the coordinate
// differences, squares, sum and square root) and the coordinate-to-index
// quotient rounding: a point's true coordinate can sit up to ~2^-27 of a
// cell outside its cell's nominal bounds (see maxCellsPerDim), so
// separations move by up to (1+2^-26)^2 ≈ 1+3e-8. 1e-6 covers that with
// two orders of margin while remaining far too small to admit a uselessly
// distant cell.
const slack = 1 + 1e-6

// radius is R, the cells per range upper edge, for dimension d. On 2000
// uniform points, a standalone drain of the whole supply took about the
// same time for R = 8 to 24 in 2-D (evaluating 9.1M to 6.6M distances for
// 2M pairs), and was fastest near R = 6 in 3-D.
func radius(d int) float64 {
	switch {
	case d <= 2:
		return 12
	case d == 3:
		return 6
	}
	return 1
}

// Pairs calls fn exactly once for every unordered pair (u, v), u < v, with
// Dist in [lo, hi) — hi == +Inf includes infinite distances — and returns
// the number of distances it evaluated. Pairs whose cells are farther
// apart than hi are never evaluated, and in low dimension neither are most
// pairs whose cells are closer than lo.
func (e *GridEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) int {
	if e.n < 2 || !(lo < hi || math.IsInf(hi, 1)) {
		return 0
	}
	cell, ok := e.cellSide(hi)
	if !ok {
		return e.allPairs(lo, hi, fn)
	}
	e.fill(cell)
	e.liveRows(lo/cell, hi/cell)
	return e.scan(lo, hi, fn)
}

// cellSide picks the cell side for ranges below hi and sets e.dims; ok is
// false when no grid applies (hi = +Inf, or a span too wide to index).
func (e *GridEnumerator) cellSide(hi float64) (cell float64, ok bool) {
	if e.dim == 0 {
		return 0, false
	}
	// Pad the cell a relative 2^-20 wider, so hi/cell stays just below R
	// even with the slack, and the ring of cells R+1 away is pruned.
	cell = max(hi/radius(e.dim)*(1+1.0/(1<<20)), minCell)
	for _, s := range e.boxSpan {
		cell = max(cell, s/maxCellsPerDim)
	}
	e.dims = grow(e.dims, e.dim)
	limit := math.Log2(float64(cellsPerPoint * e.n))
	for !math.IsInf(cell, 1) && !math.IsNaN(cell) {
		var logCells float64
		grown := 0
		for k, s := range e.boxSpan {
			e.dims[k] = int(s/cell) + 1
			if e.dims[k] > 1 {
				logCells += math.Log2(float64(e.dims[k]))
				grown++
			}
		}
		if logCells <= limit {
			return cell, true
		}
		// Grow the side by the factor that would fit the cap if the cell
		// counts scaled exactly, and by at least an eighth.
		cell *= max(math.Exp2((logCells-limit)/float64(grown)), 1.125)
	}
	return 0, false
}

// fill counting-sorts the points into cells of side cell: the CSR offsets
// in start, and the point ids and their coordinates in member and cxs, in
// cell order (ascending ids within a cell).
func (e *GridEnumerator) fill(cell float64) {
	d, cells := e.dim, 1
	for _, g := range e.dims {
		cells *= g
	}
	e.start = grow(e.start, cells+1)
	clear(e.start)
	e.cellOf = grow(e.cellOf, e.n)
	for i := range e.cellOf {
		c := 0
		for k, x := range e.xs[i*d : (i+1)*d] {
			c = c*e.dims[k] + min(int((x-e.boxLo[k])/cell), e.dims[k]-1)
		}
		e.cellOf[i] = int32(c)
		e.start[c]++
	}
	// Inclusive prefix sums make start[c] the end of cell c; placing the
	// points back to front walks each entry back to its cell's start.
	for c := 1; c < cells; c++ {
		e.start[c] += e.start[c-1]
	}
	e.start[cells] = int32(e.n)
	e.member = grow(e.member, e.n)
	e.cxs = grow(e.cxs, e.n*d)
	for i := e.n - 1; i >= 0; i-- {
		c := e.cellOf[i]
		e.start[c]--
		p := int(e.start[c])
		e.member[p] = int32(i)
		copy(e.cxs[p*d:(p+1)*d], e.xs[i*d:(i+1)*d])
	}
}

// grow returns s resized to n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// liveRows prunes the neighbour rows against [lo, hi), given in cell units
// as loU and hiU, once per call. A cell pair at displacement c holds points
// whose per-axis separations, in cells, lie between |c_k|-1 and |c_k|+1;
// it can only hold in-range pairs if those bounds straddle [lo, hi),
// widened by the slack.
func (e *GridEnumerator) liveRows(loU, hiU float64) {
	hiU2 := hiU * hiU * slack
	loU2 := loU * loU / slack
	r := int(math.Sqrt(hiU2)) + 1
	e.rows, e.rowPre = e.rows[:0], e.rowPre[:0]
	pre := make([]int, e.dim-1)
	for k := range pre {
		pre[k] = -r
	}
	for {
		// Visit pre only when its first nonzero component is positive, or
		// it is zero (the own row).
		sign := 0
		for _, v := range pre {
			if v != 0 {
				sign = v
				break
			}
		}
		if sign >= 0 {
			var minP, maxP float64
			delta := 0
			for k, v := range pre {
				a := float64(abs(v))
				if a > 1 {
					minP += (a - 1) * (a - 1)
				}
				maxP += (a + 1) * (a + 1)
				delta = (delta + v) * e.dims[k+1]
			}
			// Both bounds grow with the last-axis displacement t, so its
			// live values form one band [near, far].
			near, far := -1, -1
			for t := 0; t <= r; t++ {
				a := float64(t)
				m := minP
				if a > 1 {
					m += (a - 1) * (a - 1)
				}
				// Cells at most one apart (m = 0) stay live even when
				// hiU2 underflows: hi far below the side of a widely
				// spread set's cells.
				if (m == 0 || m < hiU2) && maxP+(a+1)*(a+1) >= loU2 {
					if near < 0 {
						near = t
					}
					far = t
				}
			}
			if near >= 0 {
				e.rows = append(e.rows, gridRow{delta: delta, near: near, far: far, own: sign == 0})
				e.rowPre = append(e.rowPre, pre...)
			}
		}
		k := len(pre) - 1
		for k >= 0 && pre[k] == r {
			pre[k] = -r
			k--
		}
		if k < 0 {
			return
		}
		pre[k]++
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// scan evaluates every pair of points in live cell pairs and returns the
// number of evaluations.
func (e *GridEnumerator) scan(lo, hi float64, fn func(u, v int, w float64)) int {
	d := e.dim
	last := e.dims[d-1]
	e.at = grow(e.at, d)
	at := e.at
	clear(at)
	evaluated := 0
	for c := 0; c+1 < len(e.start); c++ {
		if c > 0 {
			// Advance the cell coordinates to c.
			for k := d - 1; k >= 0; k-- {
				if at[k]++; at[k] < e.dims[k] {
					break
				}
				at[k] = 0
			}
		}
		s0, s1 := int(e.start[c]), int(e.start[c+1])
		if s0 == s1 {
			continue
		}
		x := at[d-1]
	rows:
		for i := range e.rows {
			row := &e.rows[i]
			for k, v := range e.rowPre[i*(d-1) : (i+1)*(d-1)] {
				if q := at[k] + v; q < 0 || q >= e.dims[k] {
					continue rows
				}
			}
			// first is the start of cell 0 of the target row; band
			// evaluates the cell against the row's cells x+a .. x+b.
			first := e.start[c+row.delta-x:]
			band := func(a, b int) {
				if a, b = max(x+a, 0), min(x+b, last-1); a <= b {
					evaluated += e.block(s0, s1, int(first[a]), int(first[b+1]), lo, hi, fn)
				}
			}
			switch {
			case row.own && row.near == 0:
				// The cell's own pairs and its band to the right are one
				// contiguous run after each point.
				end := int(first[min(x+row.far, last-1)+1])
				for p := s0; p < s1; p++ {
					evaluated += e.run(p, p+1, end, lo, hi, fn)
				}
			case row.own:
				band(row.near, row.far)
			case row.near == 0:
				band(-row.far, row.far)
			default:
				band(-row.far, -row.near)
				band(row.near, row.far)
			}
		}
	}
	return evaluated
}

// block evaluates the pairs of positions [i0, i1) against [j0, j1).
func (e *GridEnumerator) block(i0, i1, j0, j1 int, lo, hi float64, fn func(u, v int, w float64)) int {
	if j0 == j1 {
		return 0
	}
	n := 0
	for p := i0; p < i1; p++ {
		n += e.run(p, j0, j1, lo, hi, fn)
	}
	return n
}

// run evaluates position p against positions [j0, j1) on the flat
// kernel.
func (e *GridEnumerator) run(p, j0, j1 int, lo, hi float64, fn func(u, v int, w float64)) int {
	d := e.dim
	a := e.cxs[p*d : p*d+d]
	b := e.cxs[j0*d : j1*d]
	for q := j0; q < j1; q++ {
		if w := Dist(a, b[:d]); w >= lo && w < hi {
			u, v := int(e.member[p]), int(e.member[q])
			if u > v {
				u, v = v, u
			}
			fn(u, v, w)
		}
		b = b[d:]
	}
	return j1 - j0
}

// allPairs is the all-pairs branch: every pair evaluated on the flat
// kernel, filtered by graph.WeightInRange.
func (e *GridEnumerator) allPairs(lo, hi float64, fn func(u, v int, w float64)) int {
	d := e.dim
	for i := 0; i < e.n; i++ {
		a := e.xs[i*d : (i+1)*d]
		b := e.xs[(i+1)*d:]
		for j := i + 1; j < e.n; j++ {
			if w := Dist(a, b[:d]); graph.WeightInRange(w, lo, hi) {
				fn(i, j, w)
			}
			b = b[d:]
		}
	}
	return e.n * (e.n - 1) / 2
}

// Histogram tallies the weight of every pair into h on the flat kernel,
// with no per-pair callback, and returns the number of distances it
// evaluated: n(n-1)/2.
func (e *GridEnumerator) Histogram(h *Histogram) int {
	d := e.dim
	for i := 0; i < e.n; i++ {
		a := e.xs[i*d : (i+1)*d]
		b := e.xs[(i+1)*d:]
		for j := i + 1; j < e.n; j++ {
			h.Add(Dist(a, b[:d]))
			b = b[d:]
		}
	}
	return e.n * (e.n - 1) / 2
}

// ExpOffset aligns math.Frexp exponents into Histogram.Exp: the lowest
// exponent, -1073 for the smallest subnormal, lands at slot 2.
const ExpOffset = 1075

// Histogram counts non-negative weights by binary exponent, the product
// of the streamed candidate supply's counting pass: Exp[e+ExpOffset]
// counts the positive finite weights whose math.Frexp exponent is e, that
// is the weights in [2^(e-1), 2^e); Zeros and Infs count zero and +Inf
// weights.
type Histogram struct {
	Exp   [ExpOffset + 1025]int
	Zeros int
	Infs  int
}

// Add tallies one weight.
func (h *Histogram) Add(w float64) {
	switch {
	case w == 0:
		h.Zeros++
	case math.IsInf(w, 1):
		h.Infs++
	default:
		_, e := math.Frexp(w)
		h.Exp[e+ExpOffset]++
	}
}

// Remove un-tallies one weight; the exact inverse of Add.
func (h *Histogram) Remove(w float64) {
	switch {
	case w == 0:
		h.Zeros--
	case math.IsInf(w, 1):
		h.Infs--
	default:
		_, e := math.Frexp(w)
		h.Exp[e+ExpOffset]--
	}
}

// Total reports the number of tallied weights.
func (h *Histogram) Total() int {
	n := h.Zeros + h.Infs
	for _, k := range h.Exp {
		n += k
	}
	return n
}
