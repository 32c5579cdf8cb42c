package persist

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
)

// TestLockSecondOpenRejected proves the single-writer guarantee: while a
// Durable holds a directory, a second Open (and a second Create) on the
// same directory must fail fast with ErrLocked rather than interleave WAL
// writes. Closing the holder releases the directory.
func TestLockSecondOpenRejected(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)

	if _, err := Open(dir, o); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
	inc, err := core.NewIncrementalMetric(mustEuclid(t, euclidPts()[:8]), 1.6, o.Metric)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, inc, o); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Create: %v, want ErrLocked", err)
	}

	want := mustDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer d2.Close()
	if got := mustDigest(t, d2); got != want {
		t.Fatalf("digest %x after lock release reopen, want %x", got, want)
	}
}

// TestLockStaleRecovery plants lock files no live process can own — a pid
// far above the kernel's pid ceiling, and plain garbage as a torn-write
// stand-in — and verifies Open breaks them and recovers. A lock naming a
// provably live pid (our own) must still be honored.
func TestLockStaleRecovery(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)
	want := mustDigest(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		content string
	}{
		{"dead-pid", fmt.Sprintf("%d\n", 1<<30)}, // above linux pid_max: cannot be alive
		{"garbage", "not-a-pid\x00\xff"},         // torn write during the holder's crash
		{"empty", ""},
	} {
		if err := os.WriteFile(lockPath(dir), []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(dir, o)
		if err != nil {
			t.Fatalf("%s: Open with stale lock: %v", tc.name, err)
		}
		if got := mustDigest(t, d2); got != want {
			t.Fatalf("%s: digest %x after stale-lock recovery, want %x", tc.name, got, want)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A live pid is not stale, even when the file was planted by hand.
	if err := os.WriteFile(lockPath(dir), fmt.Appendf(nil, "%d\n", os.Getpid()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, o); !errors.Is(err, ErrLocked) {
		t.Fatalf("Open with live-pid lock: %v, want ErrLocked", err)
	}
	releaseLock(dir)
}

// TestLockReleasedOnFailedOpen verifies an Open that fails after taking
// the lock (here: an empty directory, ErrNoState) does not leave the
// directory wedged for the next caller.
func TestLockReleasedOnFailedOpen(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	if _, err := Open(dir, o); !errors.Is(err, ErrNoState) {
		t.Fatalf("Open empty dir: %v, want ErrNoState", err)
	}
	if _, err := os.Stat(lockPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lock left behind by failed Open: %v", err)
	}
	// The directory is immediately creatable.
	d := newEuclidDurable(t, dir, o)
	d.Close()
}

// TestLockDroppedOnSimulatedCrash verifies a Durable killed by a crash
// hook releases the directory the way a real crash does (stale pidfile,
// breakable): recovery in the same process must not see ErrLocked.
func TestLockDroppedOnSimulatedCrash(t *testing.T) {
	dir := t.TempDir()
	o := Options{Metric: core.Options{Workers: 1}}
	d := newEuclidDurable(t, dir, o)
	want := mustDigest(t, d)

	step := 0
	d.o.Hooks.Crash = func(seq int, label string) bool { step++; return step == 1 }
	if err := d.Insert(mustEuclid(t, euclidPts()[:9])); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("Insert under crash hook: %v, want ErrSimulatedCrash", err)
	}

	d2, err := Open(dir, Options{Metric: o.Metric})
	if err != nil {
		t.Fatalf("Open after simulated crash: %v", err)
	}
	defer d2.Close()
	if got := mustDigest(t, d2); got != want {
		t.Fatalf("digest %x after crash recovery, want %x", got, want)
	}
}
