// Command spannerbench runs the experiment suite that reproduces the
// figures, corollaries, and cited empirical claims of "The Greedy Spanner
// is Existentially Optimal" (Filtser & Solomon, PODC 2016) — experiments
// E1–E12 — and the ablations A1–A5 of this implementation's design
// choices, and prints the result tables. README's "Benchmarks and
// ablations" lists what each one shows.
//
// Usage:
//
//	spannerbench [-exp all|ablations|e1..e12|a1..a5] [-scale small|full] [-seed N]
//
// "small" finishes in a few seconds; "full" runs the larger instances,
// whose n=2000 cases take minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spannerbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spannerbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, ablations, e1..e12, or a1..a5")
	scaleFlag := fs.String("scale", "small", "experiment scale: small or full")
	seed := fs.Int64("seed", 42, "random seed for workload generation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale bench.Scale
	switch strings.ToLower(*scaleFlag) {
	case "small":
		scale = bench.Small
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", *scaleFlag)
	}

	type runner func() (*bench.Table, error)
	runners := map[string]runner{
		"e1":  func() (*bench.Table, error) { return bench.E1Figure1() },
		"e2":  func() (*bench.Table, error) { return bench.E2GeneralGraphs(scale, *seed) },
		"e3":  func() (*bench.Table, error) { return bench.E3SelfSpanner(scale, *seed+1) },
		"e4":  func() (*bench.Table, error) { return bench.E4DoublingLightness(scale, *seed+2) },
		"e5":  func() (*bench.Table, error) { return bench.E5ApproxGreedy(scale, *seed+3) },
		"e6":  func() (*bench.Table, error) { return bench.E6Comparison(scale, *seed+4) },
		"e7":  func() (*bench.Table, error) { return bench.E7MSTContainment(scale, *seed+5) },
		"e8":  func() (*bench.Table, error) { return bench.E8LogStretch(scale, *seed+6) },
		"e9":  func() (*bench.Table, error) { return bench.E9UnboundedDegree(scale) },
		"e10": func() (*bench.Table, error) { return bench.E10Lemma11(scale, *seed+7) },
		"e11": func() (*bench.Table, error) { return bench.E11FaultTolerance(scale, *seed+10) },
		"e12": func() (*bench.Table, error) { return bench.E12GraphFamilies(scale, *seed+11) },
		"a1":  func() (*bench.Table, error) { return bench.A1Deputies(scale) },
		"a2":  func() (*bench.Table, error) { return bench.A2BucketWidth(scale, *seed+8) },
		"a3":  func() (*bench.Table, error) { return bench.A3Certification(scale, *seed+9) },
		"a4":  func() (*bench.Table, error) { return bench.A4ParallelBatchWidth(scale, *seed+12) },
		"a5":  func() (*bench.Table, error) { return bench.A5MetricBatchWidth(scale, *seed+13) },
	}

	name := strings.ToLower(*exp)
	if name == "all" || name == "ablations" {
		var (
			tabs []*bench.Table
			err  error
		)
		if name == "all" {
			tabs, err = bench.All(scale, *seed)
			if err == nil {
				var abl []*bench.Table
				abl, err = bench.Ablations(scale, *seed+8)
				tabs = append(tabs, abl...)
			}
		} else {
			tabs, err = bench.Ablations(scale, *seed+8)
		}
		for _, t := range tabs {
			t.Fprint(os.Stdout)
		}
		return err
	}
	r, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, ablations, e1..e12, or a1..a5)", *exp)
	}
	tab, err := r()
	if err != nil {
		return err
	}
	tab.Fprint(os.Stdout)
	return nil
}
