package main

import "testing"

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "bogus"},
		{"-exp", "e99"},
		{"-bogus-flag"},
		{"-exp", "greedybench"},
		{"-json", "x"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// e1 is deterministic and fast; it exercises the full path through
	// table rendering.
	if err := run([]string{"-exp", "e1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallAblation(t *testing.T) {
	if err := run([]string{"-exp", "a2", "-scale", "small"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetricBatchAblation(t *testing.T) {
	if err := run([]string{"-exp", "a5", "-scale", "small"}); err != nil {
		t.Fatal(err)
	}
}
