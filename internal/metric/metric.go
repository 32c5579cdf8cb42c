package metric

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Metric is a finite metric space over points 0..N()-1. Implementations must
// be symmetric, non-negative, zero exactly on the diagonal, and satisfy the
// triangle inequality; Check verifies these properties exhaustively.
type Metric interface {
	// N reports the number of points.
	N() int
	// Dist returns the distance between points i and j.
	Dist(i, j int) float64
}

// Euclidean is a Metric over points in R^d under the L2 norm.
type Euclidean struct {
	pts [][]float64
	dim int
}

// NewEuclidean builds a Euclidean metric from the given points, which must
// all share the same dimension d >= 1. The points are validated once and
// then kept, not copied: the caller must not modify pts, or any point in
// it, afterwards.
func NewEuclidean(pts [][]float64) (*Euclidean, error) {
	if len(pts) == 0 {
		return &Euclidean{}, nil
	}
	d := len(pts[0])
	if d == 0 {
		return nil, fmt.Errorf("metric: zero-dimensional points: %w", graph.ErrInvalidInput)
	}
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("metric: point %d has dim %d, want %d: %w", i, len(p), d, graph.ErrInvalidInput)
		}
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("metric: point %d has non-finite coordinate: %w", i, graph.ErrInvalidInput)
			}
		}
	}
	return &Euclidean{pts: pts, dim: d}, nil
}

// MustEuclidean is NewEuclidean for statically valid inputs; panics on error.
func MustEuclidean(pts [][]float64) *Euclidean {
	m, err := NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	return m
}

// N reports the number of points.
func (m *Euclidean) N() int { return len(m.pts) }

// Dim reports the ambient dimension (0 for an empty metric).
func (m *Euclidean) Dim() int { return m.dim }

// Point returns the coordinates of point i (shared storage; do not modify).
func (m *Euclidean) Point(i int) []float64 { return m.pts[i] }

// Dist returns the Euclidean distance between points i and j.
func (m *Euclidean) Dist(i, j int) float64 {
	var s float64
	pi, pj := m.pts[i], m.pts[j]
	for k := range pi {
		d := pi[k] - pj[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// Matrix is a Metric backed by an explicit symmetric distance matrix.
type Matrix struct {
	d [][]float64
}

// NewMatrix wraps the given distance matrix. It validates squareness,
// symmetry, zero diagonal, and positivity off the diagonal, but not the
// triangle inequality (use Check for that; it is O(n^3)). The matrix is
// validated once and then kept, not copied: the caller must not modify d,
// or any row of it, afterwards.
func NewMatrix(d [][]float64) (*Matrix, error) {
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("metric: row %d has length %d, want %d: %w", i, len(d[i]), n, graph.ErrInvalidInput)
		}
		if d[i][i] != 0 {
			return nil, fmt.Errorf("metric: nonzero diagonal at %d: %w", i, graph.ErrInvalidInput)
		}
		for j := range d[i] {
			if math.IsNaN(d[i][j]) || math.IsInf(d[i][j], 0) {
				return nil, fmt.Errorf("metric: non-finite distance (%d, %d): %w", i, j, graph.ErrInvalidInput)
			}
			if i != j && d[i][j] <= 0 {
				return nil, fmt.Errorf("metric: non-positive distance %v at (%d, %d): %w", d[i][j], i, j, graph.ErrInvalidInput)
			}
			if d[i][j] != d[j][i] {
				return nil, fmt.Errorf("metric: asymmetric at (%d, %d): %w", i, j, graph.ErrInvalidInput)
			}
		}
	}
	return &Matrix{d: d}, nil
}

// N reports the number of points.
func (m *Matrix) N() int { return len(m.d) }

// Dist returns the stored distance between i and j.
func (m *Matrix) Dist(i, j int) float64 { return m.d[i][j] }

// FlatMatrix is a Metric backed by a flat row-major distance array. Unlike
// Matrix it admits +Inf off the diagonal — the "disconnected" sentinel the
// greedy engines already handle as a last-bucket candidate — so it can
// represent the restriction of any engine-visible metric, including ones a
// snapshot must round-trip bit-exactly. NaN and negative entries are still
// rejected.
type FlatMatrix struct {
	n int
	d []float64
}

// NewFlatMatrix wraps the row-major n x n distance array d (not copied).
// It validates length, symmetry, zero diagonal, and non-negativity, and
// rejects NaN; +Inf entries are allowed.
func NewFlatMatrix(n int, d []float64) (*FlatMatrix, error) {
	if n < 0 || len(d) != n*n {
		return nil, fmt.Errorf("metric: flat matrix has %d entries, want %d x %d: %w", len(d), n, n, graph.ErrInvalidInput)
	}
	for i := 0; i < n; i++ {
		if d[i*n+i] != 0 {
			return nil, fmt.Errorf("metric: nonzero diagonal at %d: %w", i, graph.ErrInvalidInput)
		}
		for j := i + 1; j < n; j++ {
			w := d[i*n+j]
			if math.IsNaN(w) || w < 0 {
				return nil, fmt.Errorf("metric: invalid distance %v at (%d, %d): %w", w, i, j, graph.ErrInvalidInput)
			}
			if w != d[j*n+i] {
				return nil, fmt.Errorf("metric: asymmetric at (%d, %d): %w", i, j, graph.ErrInvalidInput)
			}
		}
	}
	return &FlatMatrix{n: n, d: d}, nil
}

// N reports the number of points.
func (m *FlatMatrix) N() int { return m.n }

// Dist returns the stored distance between i and j.
func (m *FlatMatrix) Dist(i, j int) float64 { return m.d[i*m.n+j] }

// FromGraph returns the shortest-path metric M_G induced by a connected
// graph g (Section 2 of the paper). It materializes the full n x n distance
// matrix via APSP. Returns graph.ErrDisconnected if g is not connected.
func FromGraph(g *graph.Graph) (*Matrix, error) {
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	return &Matrix{d: g.APSP()}, nil
}

// CompleteGraph materializes the metric as a complete weighted graph
// (V, V choose 2, w) with w(u, v) = Dist(u, v), the form in which the greedy
// algorithm consumes metric spaces. O(n^2) edges.
func CompleteGraph(m Metric) *graph.Graph {
	n := m.N()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j, m.Dist(i, j))
		}
	}
	return g
}

// Check exhaustively verifies the metric axioms: symmetry, non-negativity,
// identity of indiscernibles (distinct points at distance > 0), and the
// triangle inequality, up to tolerance eps. O(n^3); for tests.
func Check(m Metric, eps float64) error {
	n := m.N()
	for i := 0; i < n; i++ {
		if d := m.Dist(i, i); d != 0 {
			return fmt.Errorf("metric: Dist(%d, %d) = %v, want 0", i, i, d)
		}
		for j := i + 1; j < n; j++ {
			dij, dji := m.Dist(i, j), m.Dist(j, i)
			if math.Abs(dij-dji) > eps {
				return fmt.Errorf("metric: asymmetric Dist(%d, %d) = %v vs %v", i, j, dij, dji)
			}
			if dij <= 0 {
				return fmt.Errorf("metric: Dist(%d, %d) = %v, want > 0", i, j, dij)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if m.Dist(i, j) > m.Dist(i, k)+m.Dist(k, j)+eps {
					return fmt.Errorf("metric: triangle inequality violated at (%d, %d, %d)", i, j, k)
				}
			}
		}
	}
	return nil
}

// Diameter returns the maximum pairwise distance (0 for n <= 1).
func Diameter(m Metric) float64 {
	n := m.N()
	var best float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := m.Dist(i, j); d > best {
				best = d
			}
		}
	}
	return best
}

// MinDistance returns the minimum pairwise distance (Inf for n <= 1).
func MinDistance(m Metric) float64 {
	n := m.N()
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := m.Dist(i, j); d < best {
				best = d
			}
		}
	}
	return best
}

// AspectRatio returns Diameter / MinDistance, the spread of the metric.
func AspectRatio(m Metric) float64 {
	md := MinDistance(m)
	if math.IsInf(md, 1) || md == 0 {
		return 0
	}
	return Diameter(m) / md
}
