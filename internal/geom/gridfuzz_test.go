package geom_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// FuzzGridPairs checks the grid enumerator against brute force. The fuzz
// bytes choose a dimension (1..5), a point count, a coordinate scale (unit
// boxes, coordinates near 2^511 whose squares overflow, coordinates near
// 1e-160 whose squared differences are subnormal, small differences on a
// 1e150 offset, and coordinates spread over 2^-512..2^515, whose cells
// dwarf their small gaps), a shape (as decoded, clustered, duplicated,
// collinear) and the coordinates themselves, quantized so that ties and
// duplicates are common. Every range the streamed supply can ask for is checked:
// each binary-exponent bucket of the set (the top one too, and
// [2^1023, +Inf) when present), the zero bucket, a merged span of
// buckets, a narrow child of a bucket split as the supply splits one, and
// [0, +Inf]. In each, every pair with weight in the range must be emitted
// exactly once, ordered u < v, with a weight bit-equal to
// metric.Euclidean.Dist, and no other pair.
func FuzzGridPairs(f *testing.F) {
	f.Add([]byte{1, 30, 0, 0, 5, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 12, 1, 0, 9, 7, 200, 100, 3, 250, 17, 90, 33, 4, 180, 77, 61, 2})
	f.Add([]byte{2, 20, 2, 1, 40, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253})
	f.Add([]byte{4, 16, 3, 2, 63, 11, 128, 128, 129, 127, 130, 126, 0, 255, 64, 192})
	f.Add([]byte{3, 25, 0, 3, 2, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{0, 9, 4, 0, 3, 1, 0, 0, 1, 0, 0, 255, 3, 255, 2, 7, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		dim := 1 + int(data[0])%5
		n := 2 + int(data[1])%38
		pts := decodePoints(data[6:], n, dim, data[2]%5, data[3]%4)
		e := geom.NewGridEnumerator(pts)
		m := metric.MustEuclidean(pts)
		ws := make(map[[2]int]float64)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ws[[2]int{i, j}] = m.Dist(i, j)
			}
		}
		check := func(lo, hi float64) {
			seen := make(map[[2]int]bool)
			e.Pairs(lo, hi, func(u, v int, w float64) {
				p := [2]int{u, v}
				want, ok := ws[p]
				switch {
				case !ok:
					t.Fatalf("[%g, %g): emitted (%d, %d), not an ordered pair", lo, hi, u, v)
				case seen[p]:
					t.Fatalf("[%g, %g): pair (%d, %d) emitted twice", lo, hi, u, v)
				case math.Float64bits(w) != math.Float64bits(want):
					t.Fatalf("[%g, %g): pair (%d, %d) weight %v, metric says %v", lo, hi, u, v, w, want)
				case !graph.WeightInRange(w, lo, hi):
					t.Fatalf("[%g, %g): pair (%d, %d) weight %v outside the range", lo, hi, u, v, w)
				}
				seen[p] = true
			})
			for p, w := range ws {
				if graph.WeightInRange(w, lo, hi) && !seen[p] {
					t.Fatalf("[%g, %g): pair %v (weight %v) not emitted (n=%d, d=%d)", lo, hi, p, w, n, dim)
				}
			}
		}
		// The exponent buckets present, as the supply's counting pass finds
		// them.
		var h geom.Histogram
		if got := e.Histogram(&h); got != n*(n-1)/2 {
			t.Fatalf("Histogram evaluated %d weights, want %d", got, n*(n-1)/2)
		}
		var exps []int
		first := math.Inf(1)
		for x, k := range h.Exp {
			if k > 0 {
				exps = append(exps, x-geom.ExpOffset)
				first = min(first, math.Ldexp(1, x-geom.ExpOffset-1))
			}
		}
		for _, x := range exps {
			check(math.Ldexp(1, x-1), math.Ldexp(1, x)) // the top bucket's hi may be +Inf
		}
		check(0, min(first, math.MaxFloat64))
		check(0, math.Inf(1))
		check(math.Inf(1), math.Inf(1))
		if len(exps) == 0 {
			return
		}
		// A merged span, and a narrow child of a split bucket: k equal
		// sub-ranges with the supply's bound formula.
		a, b := exps[int(data[4])%len(exps)], exps[int(data[5])%len(exps)]
		check(math.Ldexp(1, min(a, b)-1), math.Ldexp(1, max(a, b)))
		lo, hi := math.Ldexp(1, a-1), math.Ldexp(1, a)
		if math.IsInf(hi, 1) {
			return
		}
		k := 2 + int(data[4])%63
		j := int(data[5]) % k
		clo := lo + (hi-lo)*float64(j)/float64(k)
		chi := hi
		if j+1 < k {
			chi = lo + (hi-lo)*float64(j+1)/float64(k)
		}
		if clo < chi {
			check(clo, chi)
		}
	})
}

// decodePoints builds n points of dimension dim from the fuzz bytes: each
// coordinate is a 16-bit step on the chosen scale, then the shape is
// applied.
func decodePoints(data []byte, n, dim int, scale, shape byte) [][]float64 {
	base, unit := 0.0, 1.0/256
	switch scale {
	case 1:
		base, unit = 1.5*math.Ldexp(1, 511), math.Ldexp(1, 496)
	case 2:
		base, unit = 1e-160, 1e-164
	case 3:
		base, unit = 1e150, 1e136
	}
	word := func(i int) float64 {
		if len(data) == 0 {
			return 0
		}
		var b [2]byte
		b[0], b[1] = data[(2*i)%len(data)], data[(2*i+1)%len(data)]
		return float64(int16(binary.LittleEndian.Uint16(b[:])))
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for k := range p {
			v := word(i*dim + k)
			p[k] = base + v*unit
			if scale == 4 { // the high byte scaled by 2^(4*low byte - 512)
				b := int(int16(v))
				p[k] = math.Ldexp(float64(b>>8), (b&0xff)*4-512)
			}
		}
		pts[i] = p
	}
	switch shape {
	case 1: // clustered: the second half squeezed around its first point
		c := pts[n/2]
		for _, p := range pts[n/2:] {
			for k := range p {
				p[k] = c[k] + (p[k]-c[k])*1e-6
			}
		}
	case 2: // duplicated: every odd point repeats its predecessor
		for i := 1; i < n; i += 2 {
			copy(pts[i], pts[i-1])
		}
	case 3: // collinear: points on the line through the first two
		a, b := pts[0], pts[1]
		for i, p := range pts[2:] {
			s := word(i) / 4096
			for k := range p {
				p[k] = a[k] + s*(b[k]-a[k])
			}
		}
	}
	return pts
}
