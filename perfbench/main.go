// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every answer against an independent
// reference, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
// with --trace 1 the run is traced and reports the per-layer figures. See
// README.md for the workloads, the metrics and the layer each one measures.
//
// Run it from the repository root through run.sh, which builds this
// program and cmd/aqserver first:
//
//	bash perfbench/run.sh --workload cold-query --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each --workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"cold-query":     runColdQuery,
	"repeat-query":   runRepeatQuery,
	"serve-scenario": runServeScenario,
}

func main() {
	var (
		workload    = flag.String("workload", "", "workload: cold-query, repeat-query or serve-scenario")
		seed        = flag.Int64("seed", 1, "seed the workload's queries and mutations are generated from")
		seconds     = flag.Int("seconds", 10, "how long the measured loop runs")
		trace       = flag.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
		server      = flag.String("server", filepath.Join(".bench_build", "aqserver"), "aqserver binary serve-scenario launches")
		workDir     = flag.String("workdir", ".bench_build", "directory for snapshots and server logs")
		determinism = flag.Bool("determinism", false, "run the workload twice at --seed and once at --seed+1 for its minimum rounds, and check that counts and answers repeat exactly")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed:      *seed,
		duration:  time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		size:      fullSize,
		serverBin: *server,
		workDir:   *workDir,
	}
	if *determinism {
		if err := checkDeterminism(run, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("determinism: counts and answer digest repeat at one seed and change with the next")
		return
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.complete(cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, cfg.trace)
}

// config is one run's settings.
type config struct {
	seed int64
	// duration is how long the measured loop runs; the loop always
	// finishes its current round and never stops before size.minRounds.
	duration  time.Duration
	trace     bool
	size      size
	serverBin string
	workDir   string
}

// size holds the counts that set how much work a run does besides its
// measured loop. The smoke test shrinks them; the benchmark uses fullSize.
type size struct {
	// setups is how many times set-up runs; setup_s is their median.
	// repeat-query's set-up warms a bank segment with the whole query set,
	// so it runs repeatSetups times instead.
	setups, repeatSetups int
	// minRounds is the number of rounds every run makes whatever its
	// duration. Per-layer counts are taken over exactly these rounds, so
	// they repeat run to run at one seed.
	minRounds int
	// evalQueries is how many JT queries are checked against the
	// all-zones ground truth; jt_mae_s averages over them. They come from
	// the counted rounds, so it may not exceed minRounds.
	evalQueries int
	// repeatSet is the number of distinct queries repeat-query cycles.
	repeatSet int
	// reads is how many cached reads follow each fresh query on
	// serve-scenario.
	reads int
	// spotChecks is how many scenario-epoch answers serve-scenario
	// compares with an engine built from scratch on the mutated city.
	spotChecks int
}

var fullSize = size{setups: 9, repeatSetups: 3, minRounds: 16, evalQueries: 16, repeatSet: 16, reads: 4, spotChecks: 4}

// endToEndMetrics and perLayerMetrics are the figures BENCHMARK.json lists,
// with their units. Every workload reports every end-to-end figure; a
// per-layer figure a workload has no layer for reads 0 (README.md says
// which workload moves which figure).
var endToEndMetrics = map[string]string{
	"setup_s": "s", "query_p50_ms": "ms", "throughput_ops_s": "1/s",
	"cpu_ms_per_op": "ms", "alloc_mb_per_op": "MiB", "jt_mae_s": "s",
}

var perLayerMetrics = map[string]string{
	"trips_per_query": "count", "matrix_ms": "ms",
	"spqs_per_query": "count", "relaxations_per_spq": "count", "labeling_ms": "ms", "us_per_spq": "us",
	"bank_drained_per_query": "count",
	"features_ms":            "ms", "feature_cache_misses_per_query": "count",
	"training_ms": "ms", "training_iterations": "count",
	"allocs_per_op": "count", "gc_cpu_ms_per_op": "ms", "peak_rss_mb": "MiB",
	"prep_isochrones_ms": "ms", "prep_hoptrees_ms": "ms", "prep_spatial_index_ms": "ms",
	"snapshot_load_ms": "ms", "feature_warm_ms": "ms",
	"queue_wait_ms": "ms", "server_run_ms": "ms", "cache_hits": "count", "engine_runs": "count",
	"http_overhead_ms":    "ms",
	"scenario_rebuild_ms": "ms", "hop_trees_rebuilt": "count", "feature_cache_dropped": "count",
	"swap_ms": "ms", "revert_ms": "ms",
	"query_p90_ms": "ms", "hit_p50_ms": "ms", "scenario_apply_p50_ms": "ms", "scenario_query_p50_ms": "ms",
	"tracing_overhead_ms": "ms",
}

// classStats counts one operation class's attempts and failures and keeps
// its latencies.
type classStats struct {
	attempted, failed int
	latencies         []time.Duration
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back: the end-to-end and per-layer
// metrics, per-class accounting, and the outcome of its checks.
type report struct {
	classes   map[string]*classStats
	endToEnd  map[string]metric
	perLayer  map[string]metric
	checkErrs []string
	// counts and digest are the run's deterministic fingerprint over its
	// first size.minRounds rounds: per-layer counts and a hash of every
	// answer. checkDeterminism compares them between runs.
	counts map[string]float64
	digest string
	// setups are the individual set-up times behind setup_s, in seconds.
	setups []float64
}

func newReport() *report {
	return &report{
		classes:  make(map[string]*classStats),
		endToEnd: make(map[string]metric),
		perLayer: make(map[string]metric),
		counts:   make(map[string]float64),
	}
}

func (r *report) class(name string) *classStats {
	c, ok := r.classes[name]
	if !ok {
		c = &classStats{}
		r.classes[name] = c
	}
	return c
}

// fail records a failed independent check; the run then reports
// correct=false.
func (r *report) fail(format string, args ...any) {
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// count records a per-layer count: reported as a metric in traced runs and
// part of the determinism fingerprint.
func (r *report) count(name, unit string, v float64) {
	r.perLayer[name] = metric{v, unit}
	r.counts[name] = v
}

// complete checks that the run measured every figure its mode reports,
// filling per-layer figures the workload has no layer for with 0.
func (r *report) complete(trace bool) error {
	if !trace {
		for name, unit := range endToEndMetrics {
			m, ok := r.endToEnd[name]
			if !ok || m.Unit != unit {
				return fmt.Errorf("end-to-end metric %s not measured in %s", name, unit)
			}
		}
		return nil
	}
	for name, unit := range perLayerMetrics {
		m, ok := r.perLayer[name]
		if !ok {
			r.perLayer[name] = metric{0, unit}
		} else if m.Unit != unit {
			return fmt.Errorf("per-layer metric %s measured in %s, want %s", name, m.Unit, unit)
		}
	}
	return nil
}

func (r *report) totals() (attempted, failed int) {
	for _, c := range r.classes {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// print writes the human-readable summary and then, as the last line, the
// JSON result.
func (r *report) print(w *os.File, trace bool) {
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.classes[n]
		fmt.Fprintf(w, "class %-16s attempted=%-5d failed=%-3d p50=%.3fms p90=%.3fms\n",
			n, c.attempted, c.failed, ms(percentile(c.latencies, 50)), ms(percentile(c.latencies, 90)))
	}
	fmt.Fprintf(w, "setup times (s): %.4f\n", r.setups)
	for _, e := range r.checkErrs {
		fmt.Fprintln(w, "CHECK FAILED:", e)
	}
	metrics := r.endToEnd
	if trace {
		metrics = r.perLayer
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "metric %-32s %14.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	attempted, failed := r.totals()
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.checkErrs) == 0, attempted, failed, metrics})
	fmt.Fprintln(w, string(out))
}

// checkDeterminism runs a workload at cfg.seed twice and at cfg.seed+1
// once, each for exactly its minimum rounds, and reports any per-layer
// count or answer digest that differs between the two same-seed runs, or a
// digest the next seed fails to change.
func checkDeterminism(run func(config) (*report, error), cfg config) error {
	cfg.duration = 0
	cfg.trace = true
	var reps [3]*report
	for i := range reps {
		c := cfg
		if i == 2 {
			c.seed++
		}
		rep, err := run(c)
		if err != nil {
			return err
		}
		if len(rep.checkErrs) > 0 {
			return fmt.Errorf("seed %d: check failed: %s", c.seed, rep.checkErrs[0])
		}
		reps[i] = rep
	}
	a, b := reps[0], reps[1]
	if len(a.counts) == 0 {
		return fmt.Errorf("workload reported no counts")
	}
	for k, v := range a.counts {
		if w, ok := b.counts[k]; !ok || w != v {
			return fmt.Errorf("count %s differs between two runs at seed %d: %v vs %v", k, cfg.seed, v, w)
		}
	}
	if a.digest != b.digest {
		return fmt.Errorf("answer digest differs between two runs at seed %d", cfg.seed)
	}
	if reps[2].digest == a.digest {
		return fmt.Errorf("seeds %d and %d gave the same answer digest", cfg.seed, cfg.seed+1)
	}
	return nil
}
