package persist

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestPersistAppendPoints checks the coordinate-level insertion path is
// bit-identical to the union-metric Insert path (same digest, same
// OpSeq), rejects malformed rows without logging them, and survives a
// close/reopen round trip.
func TestPersistAppendPoints(t *testing.T) {
	o := Options{Metric: core.Options{Workers: 1}}
	pts := euclidPts()

	dirA, dirB := t.TempDir(), t.TempDir()
	dA := newEuclidDurable(t, dirA, o)
	defer dA.Close()
	dB := newEuclidDurable(t, dirB, o)

	if err := dA.Insert(mustEuclid(t, pts[:11])); err != nil {
		t.Fatal(err)
	}
	if err := dB.AppendPoints(pts[8:11]); err != nil {
		t.Fatal(err)
	}
	if a, b := mustDigest(t, dA), mustDigest(t, dB); a != b {
		t.Fatalf("AppendPoints digest %x, Insert digest %x", b, a)
	}
	if dA.OpSeq() != dB.OpSeq() {
		t.Fatalf("OpSeq diverged: Insert %d, AppendPoints %d", dA.OpSeq(), dB.OpSeq())
	}

	// Rejections validate before logging: OpSeq must not move.
	before := dB.OpSeq()
	for name, rows := range map[string][][]float64{
		"wrong-dim":  {{1, 2, 3}},
		"nan":        {{math.NaN(), 0}},
		"inf":        {{0, math.Inf(1)}},
		"mixed-good": {pts[11], {9, math.NaN()}},
	} {
		if err := dB.AppendPoints(rows); !errors.Is(err, graph.ErrInvalidInput) {
			t.Fatalf("%s: %v, want ErrInvalidInput", name, err)
		}
	}
	if err := dB.AppendPoints(nil); err != nil {
		t.Fatalf("empty AppendPoints: %v", err)
	}
	if dB.OpSeq() != before {
		t.Fatalf("rejected AppendPoints advanced OpSeq %d -> %d", before, dB.OpSeq())
	}

	want := mustDigest(t, dB)
	if err := dB.Close(); err != nil {
		t.Fatal(err)
	}
	dB2, err := Open(dirB, o)
	if err != nil {
		t.Fatal(err)
	}
	defer dB2.Close()
	if got := mustDigest(t, dB2); got != want {
		t.Fatalf("reopened digest %x, want %x", got, want)
	}
}
