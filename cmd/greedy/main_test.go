package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCapture(t *testing.T, args []string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	runErr := run(context.Background(), args, out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunGraphInput(t *testing.T) {
	path := writeTemp(t, "g.txt", "# triangle\n0 1 1\n1 2 1\n0 2 1\n")
	got, err := runCapture(t, []string{"-t", "2", "-graph", path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "# stats: edges=2") {
		t.Fatalf("unexpected output:\n%s", got)
	}
}

func TestRunPointsInput(t *testing.T) {
	path := writeTemp(t, "p.txt", "0 0\n1 0\n2 0\n0.5 1\n")
	got, err := runCapture(t, []string{"-t", "1.5", "-points", path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "# stats:") || !strings.Contains(got, "maxstretch=") {
		t.Fatalf("unexpected output:\n%s", got)
	}
}

func TestRunPointsWorkers(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "%.4f %.4f\n", float64(i%6)*0.17, float64(i/6)*0.23)
	}
	path := writeTemp(t, "p.txt", sb.String())
	ref, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-workers", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"0", "1", "4"} {
		got, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-workers", w})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("-workers %s diverged from serial reference:\n%s\nvs\n%s", w, got, ref)
		}
	}
}

func TestRunPointsInsert(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%.4f %.4f\n", float64(i%8)*0.19, float64(i/8)*0.31)
	}
	path := writeTemp(t, "p.txt", sb.String())
	want, err := runCapture(t, []string{"-t", "1.5", "-points", path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-insert", "10", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("-insert diverged from the from-scratch build:\n%s\nvs\n%s", got, want)
	}
}

func TestRunGraphInsert(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "%d %d %.3f\n", i, (i+1)%20, 1+float64(i%5)*0.1)
		fmt.Fprintf(&sb, "%d %d %.3f\n", i, (i+7)%20, 2+float64(i%3)*0.2)
	}
	path := writeTemp(t, "g.txt", sb.String())
	want, err := runCapture(t, []string{"-t", "2", "-graph", path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCapture(t, []string{"-t", "2", "-graph", path, "-insert", "12"})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("-insert diverged from the from-scratch build:\n%s\nvs\n%s", got, want)
	}
}

func TestRunPointsApprox(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "%.4f %.4f\n", float64(i)*0.13, float64(i*i%7)*0.21)
	}
	path := writeTemp(t, "p.txt", sb.String())
	got, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-algo", "approx"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "# stats:") {
		t.Fatalf("unexpected output:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	g := writeTemp(t, "g.txt", "0 1 1\n")
	p := writeTemp(t, "p.txt", "0 0\n1 1\n")
	cases := [][]string{
		{},                          // no input
		{"-graph", g, "-points", p}, // both inputs
		{"-graph", filepath.Join(t.TempDir(), "missing")},               // unreadable
		{"-t", "0.5", "-graph", g},                                      // bad stretch
		{"-points", p, "-algo", "nope"},                                 // unknown algo
		{"-points", p, "-algo", "approx", "-t", "3"},                    // approx needs t < 2
		{"-points", p, "-algo", "approx", "-t", "1.5", "-workers", "4"}, // -workers is greedy-only
		{"-points", p, "-insert", "-1"},                                 // negative holdout
		{"-points", p, "-insert", "2"},                                  // holds out everything
		{"-points", p, "-insert", "1", "-workers", "-1"},                // no serial reference mode
		{"-points", p, "-insert", "1", "-algo", "approx", "-t", "1.5"},  // greedy-only
		{"-graph", g, "-insert", "1"},                                   // holds out everything
	}
	for _, args := range cases {
		if _, err := runCapture(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestReadGraphBadLines(t *testing.T) {
	cases := []string{
		"0 1\n",
		"x 1 2\n",
		"0 y 2\n",
		"0 1 z\n",
		"0 0 1\n",  // self loop
		"0 1 -3\n", // negative weight
	}
	for _, c := range cases {
		path := writeTemp(t, "bad.txt", c)
		if _, err := readGraph(path); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestReadPointsBadLine(t *testing.T) {
	path := writeTemp(t, "bad.txt", "1.0 zzz\n")
	if _, err := readPoints(path); err == nil {
		t.Error("bad point accepted")
	}
}

func TestRunHubsMatchesDefault(t *testing.T) {
	var pts strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&pts, "%d %d\n", i%6, i/6)
	}
	path := writeTemp(t, "p.txt", pts.String())
	base, err := runCapture(t, []string{"-t", "1.5", "-points", path})
	if err != nil {
		t.Fatal(err)
	}
	for _, hubs := range []string{"-1", "4"} {
		got, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-hubs", hubs})
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("-hubs %s output differs from the default engine:\n%s\nvs\n%s", hubs, got, base)
		}
	}
	gpath := writeTemp(t, "g.txt", "0 1 1\n1 2 1\n0 2 1.5\n2 3 1\n3 0 2\n")
	gbase, err := runCapture(t, []string{"-t", "2", "-graph", gpath})
	if err != nil {
		t.Fatal(err)
	}
	ghubs, err := runCapture(t, []string{"-t", "2", "-graph", gpath, "-hubs", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if ghubs != gbase {
		t.Fatalf("-hubs graph output differs:\n%s\nvs\n%s", ghubs, gbase)
	}
	if _, err := runCapture(t, []string{"-t", "1.5", "-points", path, "-hubs", "4", "-workers", "-1"}); err == nil {
		t.Fatal("want error for -hubs with the sequential reference engine")
	}
}
