package bench

import "testing"

func TestA1DeputiesSmall(t *testing.T) {
	tab, err := A1Deputies(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: ring gadget on/off, uniform on/off.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// On the gadget, deputies must not increase the max degree.
	on := atoiMust(t, tab.Rows[0][4])
	off := atoiMust(t, tab.Rows[1][4])
	if on > off {
		t.Fatalf("deputies increased gadget degree: %d > %d", on, off)
	}
}

func TestA2BucketWidthSmall(t *testing.T) {
	tab, err := A2BucketWidth(Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Wider buckets cannot need more rebuilds.
	prev := 1 << 30
	for _, row := range tab.Rows {
		r := atoiMust(t, row[3])
		if r > prev {
			t.Fatalf("rebuilds increased with wider mu: %v", tab.Rows)
		}
		prev = r
	}
}

func TestA3CertificationSmall(t *testing.T) {
	tab, err := A3Certification(Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if atoiMust(t, row[2])+atoiMust(t, row[3]) == 0 {
			t.Fatalf("no skips at all in row %v", row)
		}
	}
}

func TestA4ParallelBatchWidthSmall(t *testing.T) {
	tab, err := A4ParallelBatchWidth(Small, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: fixed widths 32/128/512/2048 plus adaptive.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[7])
		if kept == 0 {
			t.Fatalf("no edges kept in row %v", row)
		}
		// Every examined edge is either certified, serially skipped, or kept.
		if atoiMust(t, row[5])+atoiMust(t, row[6])+kept != atoiMust(t, row[1]) {
			t.Fatalf("skip accounting broken in row %v", row)
		}
	}
	// All widths must agree on the spanner size (identical decisions).
	first := atoiMust(t, tab.Rows[0][7])
	for _, row := range tab.Rows[1:] {
		if atoiMust(t, row[7]) != first {
			t.Fatalf("batch width changed the spanner: %v", tab.Rows)
		}
	}
}

func TestA5MetricBatchWidthSmall(t *testing.T) {
	tab, err := A5MetricBatchWidth(Small, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (fixed widths 32/128/512/2048 plus adaptive) x two metric kinds.
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[10])
		if kept == 0 {
			t.Fatalf("no edges kept in row %v", row)
		}
		// Every examined pair is cached-skipped, snapshot-certified,
		// serially skipped, or kept.
		n := atoiMust(t, row[1])
		total := atoiMust(t, row[5]) + atoiMust(t, row[6]) + atoiMust(t, row[7]) + kept
		if total != n*(n-1)/2 {
			t.Fatalf("pair accounting broken in row %v: got %d, want %d", row, total, n*(n-1)/2)
		}
	}
	// Within each metric kind, all widths must agree on the spanner size
	// (identical decisions).
	sizeByKind := map[string]int{}
	for _, row := range tab.Rows {
		kept := atoiMust(t, row[10])
		if want, ok := sizeByKind[row[0]]; ok && kept != want {
			t.Fatalf("batch width changed the %s spanner: %v", row[0], tab.Rows)
		}
		sizeByKind[row[0]] = kept
	}
}

func TestAblationsAll(t *testing.T) {
	tabs, err := Ablations(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("tables = %d, want 5", len(tabs))
	}
}
