package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, for a few requests
// against a freshly built costd and checks that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit, and that no
// request failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts costd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, workloadNames)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "costd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/costd").CombinedOutput(); err != nil {
		t.Fatalf("building costd: %v\n%s", err, out)
	}

	for _, w := range names {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 600 * time.Millisecond, trace: trace, costd: bin, out: dir}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v", w, trace, res.Attempted, res.Failed, res.Correct)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace && res.Metrics["success_share"].Value != 1 {
				t.Errorf("%s: success_share %v, want 1", w, res.Metrics["success_share"].Value)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "spans-"+w+"-seed1.jsonl")); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}
