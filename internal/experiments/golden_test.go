package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// checkGolden compares a rendered table with its pinned rendering in
// testdata, byte for byte up to the trailing newline.
func checkGolden(t *testing.T, name string, tbl *report.Table) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.String()
	if strings.TrimRight(got, "\n") != strings.TrimRight(string(want), "\n") {
		t.Errorf("%s drifted from testdata/%s:\ngot:\n%s\nwant:\n%s", tbl.Title, name, got, want)
	}
}

// TestAblationOversizeGolden pins every cell of A5: the oversize sweep is
// pure model math plus a deterministic round-robin replay, so re-expressing
// the simulator behind it must keep this table byte-identical.
func TestAblationOversizeGolden(t *testing.T) {
	tbl, err := AblationOversize()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "a5_oversize.golden", tbl)
}

// TestAblationDSEGolden pins A7's point table and the deterministic half of
// its productivity line (point count and estimated flow time); the measured
// model time is wall clock and is not pinned.
func TestAblationDSEGolden(t *testing.T) {
	tbl, prod, err := AblationDSE()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "a7_dse.golden", tbl)
	if prod.Points != 5 {
		t.Errorf("A7 points = %d, want Bell(3) = 5", prod.Points)
	}
	if want := 2*time.Hour + 4*time.Minute + 51405*time.Millisecond; prod.FlowTime != want {
		t.Errorf("A7 flow time = %v, want %v", prod.FlowTime, want)
	}
}
