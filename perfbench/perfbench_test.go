package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// smokeSize runs every workload's code path, checks included, at the
// smallest counts that still exercise each operation class.
var smokeSize = size{setups: 1, repeatSetups: 1, minRounds: 1, evalQueries: 1, repeatSet: 2, reads: 1, spotChecks: 1}

// smokeConfig builds aqserver from this checkout and returns a minimal
// run configuration.
func smokeConfig(t *testing.T) config {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "aqserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/aqserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building aqserver: %v\n%s", err, out)
	}
	return config{seed: 7, size: smokeSize, serverBin: bin, workDir: dir}
}

// TestWorkloadsSmoke runs each workload untraced at minimal length and
// checks that it answers correctly, fails no operation, and reports every
// end-to-end metric.
func TestWorkloadsSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.complete(false); err != nil {
				t.Fatal(err)
			}
			if len(rep.checkErrs) > 0 {
				t.Fatalf("checks failed: %v", rep.checkErrs)
			}
			attempted, failed := rep.totals()
			if attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			for name, m := range rep.endToEnd {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestDeterminism runs each workload traced twice at one seed and once at
// the next: per-layer counts and the answer digest must repeat exactly, and
// the next seed must change the digest. The ground-truth checks, already
// covered by TestWorkloadsSmoke, are left out to keep it short.
func TestDeterminism(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.size.evalQueries = 0
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			if err := checkDeterminism(run, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, reported map[string]string) {
		if len(listed) != len(reported) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(reported))
		}
		for _, m := range listed {
			if unit, ok := reported[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): the program reports unit %q", kind, m.Name, m.Unit, unit)
			}
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEndMetrics)
	compare("per-layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
}
