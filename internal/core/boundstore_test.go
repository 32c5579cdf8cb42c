package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestEnc16UpIsTightUpperBound checks the bound store's encoder contract
// on non-negative inputs: the bfloat16 code of x decodes to at least x,
// and the next code down decodes below x, so the code is the tightest
// upper bound the encoding has. The edge cases are both zeros, float64
// and float32 subnormals, the float32 ceiling and its neighbours, values
// past it, and +Inf. The random inputs span every non-negative float64
// and, densely, the float32 range with random low mantissa bits.
func TestEnc16UpIsTightUpperBound(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		h := enc16up(x)
		if up := dec16(h); !(up >= x) {
			t.Fatalf("enc16up(%g) = %#04x decodes to %g, below the input", x, h, up)
		}
		if h&0x7FFF == 0 {
			return // a zero code has no code below it
		}
		if down := dec16(h - 1); !(down < x) {
			t.Fatalf("enc16up(%g) = %#04x is not tight: %#04x decodes to %g", x, h, h-1, down)
		}
	}
	max32 := float64(math.MaxFloat32)
	for _, x := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 1e-310,
		math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 3, 1e-40,
		float64(math.Float32frombits(0x007FFFFF)), float64(math.Float32frombits(0x00800000)),
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, 3.0078125,
		float64(math.Nextafter32(math.MaxFloat32, 0)), math.Nextafter(max32, 0),
		max32, math.Nextafter(max32, math.Inf(1)), 2 * max32, math.MaxFloat64,
		math.Inf(1),
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<19; i++ {
		x := math.Float64frombits(rng.Uint64() >> 1)
		y := math.Float64frombits(math.Float64bits(float64(math.Float32frombits(rng.Uint32()>>1))) | rng.Uint64()&(1<<29-1))
		for _, v := range []float64{x, y} {
			if !math.IsNaN(v) {
				check(v)
			}
		}
	}
}
