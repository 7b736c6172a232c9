package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/bank"
	"accessquery/internal/core"
	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/obs"
	"accessquery/internal/spatial"
	"accessquery/internal/synth"
)

// The query shape every workload uses: one POI category, so the SPQ count
// per query stays unimodal (hospital or job-centre queries price a fifth
// as many trips), one model and one operating point.
const (
	cityScale      = 0.2 // Coventry x0.2: 202 zones, 46 schools
	category       = synth.POISchool
	budget         = 0.1
	samplesPerHour = 6
	model          = core.ModelMLP
	// correlationFloor is the lowest accepted mean, over a run's checked
	// JT queries, of the Pearson correlation between inferred and
	// ground-truth MAC. Single queries spread widely (0.375 to 0.96 seen at
	// this operating point, median 0.92), so the floor is on the mean.
	correlationFloor = 0.75
)

// interval is the service window every engine serves, the one aqserver
// uses.
var interval = gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"}

// tracingPairs is how many operations the traced run repeats untraced and
// traced to price tracing.
const tracingPairs = 8

// relaxCounter is the router's cumulative count of edge relaxations.
const relaxCounter = "aq_router_relaxations_total"

// poolWidth is the worker count for engine pre-processing and each
// query's feature stage: never wider than the host.
func poolWidth() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

func cityConfig() synth.Config { return synth.Scaled(synth.Coventry(), cityScale) }

// buildEngine generates the city and runs the offline phase the way a
// server does at boot, feature-cache warming included. It returns the time
// warming took.
func buildEngine() (*core.Engine, time.Duration, error) {
	city, err := synth.Generate(cityConfig())
	if err != nil {
		return nil, 0, err
	}
	eng, err := core.NewEngine(city, core.EngineOptions{Interval: interval, Parallelism: poolWidth()})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	eng.WarmFeatureCaches(poolWidth())
	return eng, time.Since(t0), nil
}

// query builds the benchmark's query with the given seed and cost.
func query(city *synth.City, seed int64, cost access.CostKind) core.Query {
	return core.Query{
		POIs:           core.POIsOf(city, category),
		Cost:           cost,
		Budget:         budget,
		Model:          model,
		SamplesPerHour: samplesPerHour,
		Seed:           seed,
	}
}

// querySeed draws a query seed from the workload's generator. Seeds are
// kept below 2^31 so they survive a JSON round trip unchanged.
func querySeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<31-1) }

// runQuery runs one query on an engine, under a fresh trace when traced.
func runQuery(eng *core.Engine, q core.Query, traced bool) (*core.Result, time.Duration, *core.ExplainReport, error) {
	ctx := context.Background()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	t0 := time.Now()
	res, err := eng.RunContext(ctx, q)
	lat := time.Since(t0)
	var ex *core.ExplainReport
	if traced {
		ex = core.Explain(tr.Summary())
	}
	return res, lat, ex, err
}

// layers accumulates per-layer figures from explain reports. Counts cover
// the first size.minRounds rounds only, so they repeat exactly run to run;
// times cover every traced query.
type layers struct {
	queries, spqs, trips, drained, cacheMisses, iterations int64
	relaxations                                            int64
	matrix, labeling, features, training, usPerSPQ         []float64
	tracingOverhead                                        []float64
}

func (l *layers) add(ex *core.ExplainReport, counted bool) {
	self := selfSeconds(ex.Trace)
	l.matrix = append(l.matrix, self["matrix"]*1e3)
	l.labeling = append(l.labeling, self["labeling"]*1e3)
	l.features = append(l.features, self["features"]*1e3)
	l.training = append(l.training, self["training"]*1e3)
	if ex.SPQs > 0 {
		l.usPerSPQ = append(l.usPerSPQ, self["labeling"]*1e6/float64(ex.SPQs))
	}
	if !counted {
		return
	}
	l.queries++
	l.spqs += ex.SPQs
	l.trips += ex.MatrixTrips
	l.drained += ex.BankDrained
	l.cacheMisses += ex.FeatureCacheMisses
	l.iterations += ex.TrainingIterations
}

func (l *layers) report(rep *report) {
	perQuery := func(v int64) float64 {
		if l.queries == 0 {
			return 0
		}
		return float64(v) / float64(l.queries)
	}
	rep.count("trips_per_query", "count", perQuery(l.trips))
	rep.count("spqs_per_query", "count", perQuery(l.spqs))
	rep.count("bank_drained_per_query", "count", perQuery(l.drained))
	// Not a count that repeats: parallel feature workers that miss on the
	// same cache entry both compute it and both count the miss.
	rep.perLayer["feature_cache_misses_per_query"] = metric{perQuery(l.cacheMisses), "count"}
	rep.count("training_iterations", "count", perQuery(l.iterations))
	relaxPerSPQ := 0.0
	if l.spqs > 0 {
		relaxPerSPQ = float64(l.relaxations) / float64(l.spqs)
	}
	rep.count("relaxations_per_spq", "count", relaxPerSPQ)
	rep.perLayer["matrix_ms"] = metric{median(l.matrix), "ms"}
	rep.perLayer["labeling_ms"] = metric{median(l.labeling), "ms"}
	rep.perLayer["features_ms"] = metric{median(l.features), "ms"}
	rep.perLayer["training_ms"] = metric{median(l.training), "ms"}
	rep.perLayer["us_per_spq"] = metric{median(l.usPerSPQ), "us"}
	rep.perLayer["tracing_overhead_ms"] = metric{median(l.tracingOverhead), "ms"}
}

// processCost samples this process's CPU, allocations and GC CPU around
// the measured loop.
type processCost struct {
	cpu time.Duration
	rt  runtimeSample
}

func sampleProcess() processCost { return processCost{selfCPU(), readRuntime()} }

// reportInProcess fills the end-to-end and per-layer process figures of an
// in-process workload from samples taken around its measured loop and the
// peak RSS read at the end of its counted rounds.
func reportInProcess(rep *report, before, after processCost, ops int, elapsed time.Duration, setups []float64, rss float64) {
	n := float64(ops)
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	rep.setups = setups
	rep.endToEnd["throughput_ops_s"] = metric{n / elapsed.Seconds(), "1/s"}
	rep.endToEnd["cpu_ms_per_op"] = metric{ms(after.cpu-before.cpu) / n, "ms"}
	rep.endToEnd["alloc_mb_per_op"] = metric{float64(after.rt.allocBytes-before.rt.allocBytes) / n / (1 << 20), "MiB"}
	rep.perLayer["peak_rss_mb"] = metric{rss, "MiB"}
	rep.perLayer["allocs_per_op"] = metric{float64(after.rt.allocObjects-before.rt.allocObjects) / n, "count"}
	rep.perLayer["gc_cpu_ms_per_op"] = metric{(after.rt.gcCPUSeconds - before.rt.gcCPUSeconds) * 1e3 / n, "ms"}
}

// reportLatency fills query_p50_ms, and in traced runs query_p90_ms, from
// a class.
func reportLatency(rep *report, c *classStats) {
	rep.endToEnd["query_p50_ms"] = metric{ms(percentile(c.latencies, 50)), "ms"}
	rep.perLayer["query_p90_ms"] = metric{ms(percentile(c.latencies, 90)), "ms"}
}

// prepLayers times the offline stages NewEngine runs, by calling the same
// public functions on the same inputs: walking isochrones, hop-tree
// generation, and the zone and road-node KD-trees.
func prepLayers(rep *report, city *synth.City, reps int) error {
	var isoMS, treeMS, kdMS []float64
	zonePts := make([]geo.Point, len(city.Zones))
	for i, z := range city.Zones {
		zonePts[i] = z.Centroid
	}
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		isos, err := isochrone.ComputeSetParallel(city.Road, zonePts, city.ZoneNode, isochrone.DefaultTauSeconds, poolWidth())
		if err != nil {
			return err
		}
		isoMS = append(isoMS, ms(time.Since(t0)))
		t0 = time.Now()
		b, err := hoptree.NewBuilder(city.Feed, interval, zonePts, isos)
		if err != nil {
			return err
		}
		if _, err := hoptree.BuildForestParallel(b, poolWidth()); err != nil {
			return err
		}
		treeMS = append(treeMS, ms(time.Since(t0)))
		t0 = time.Now()
		zoneItems := make([]spatial.Item, len(zonePts))
		for i, p := range zonePts {
			zoneItems[i] = spatial.Item{ID: i, Point: p}
		}
		spatial.NewKDTree(zoneItems)
		roadItems := make([]spatial.Item, city.Road.NumNodes())
		for i := range roadItems {
			roadItems[i] = spatial.Item{ID: i, Point: city.Road.Point(graph.NodeID(i))}
		}
		spatial.NewKDTree(roadItems)
		kdMS = append(kdMS, ms(time.Since(t0)))
	}
	rep.perLayer["prep_isochrones_ms"] = metric{median(isoMS), "ms"}
	rep.perLayer["prep_hoptrees_ms"] = metric{median(treeMS), "ms"}
	rep.perLayer["prep_spatial_index_ms"] = metric{median(kdMS), "ms"}
	return nil
}

// digestResult folds an answer's per-zone measures into h.
func digestResult(h hash.Hash, res *core.Result) {
	var b [8]byte
	for i := range res.MAC {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.MAC[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.ACSD[i]))
		h.Write(b[:])
		flags := byte(0)
		if res.Valid[i] {
			flags |= 1
		}
		if res.Labeled[i] {
			flags |= 2
		}
		h.Write([]byte{flags})
	}
}

// sameAnswer reports whether two results carry identical measures.
func sameAnswer(a, b *core.Result) bool {
	if len(a.MAC) != len(b.MAC) || a.Fairness != b.Fairness || a.WalkOnlyShare != b.WalkOnlyShare {
		return false
	}
	for i := range a.MAC {
		if a.MAC[i] != b.MAC[i] || a.ACSD[i] != b.ACSD[i] || a.Valid[i] != b.Valid[i] ||
			a.Labeled[i] != b.Labeled[i] || a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}

// checkAnswer runs the per-answer checks every workload applies: Jain's
// index recomputed from the MAC column must match the reported fairness.
func checkAnswer(rep *report, label string, res *core.Result) {
	if got := jain(res.MAC, res.Valid); !closeTo(res.Fairness, got) {
		rep.fail("%s: fairness %v, recomputed Jain index %v", label, res.Fairness, got)
	}
}

// groundTruthCheck compares JT answers with the all-zones ground truth:
// labeled zones must match it exactly and inferred MAC must correlate with
// it. It returns the mean absolute error of inferred MAC per query.
func groundTruthCheck(rep *report, eng *core.Engine, qs []core.Query, answers []zoneAnswer) []float64 {
	var maes, corrs []float64
	for i, q := range qs {
		q.Workers = poolWidth()
		q.Bank = nil
		gt, err := eng.GroundTruth(q)
		if err != nil {
			rep.fail("ground truth for seed %d: %v", q.Seed, err)
			continue
		}
		a := answers[i]
		var inferred, truth []float64
		var absErr float64
		for z := range gt.MAC {
			if !a.valid[z] {
				continue
			}
			if a.labeled[z] {
				if a.mac[z] != gt.MAC[z] || a.acsd[z] != gt.ACSD[z] || !gt.Valid[z] {
					rep.fail("seed %d zone %d: labeled MAC/ACSD %v/%v, ground truth %v/%v",
						q.Seed, z, a.mac[z], a.acsd[z], gt.MAC[z], gt.ACSD[z])
				}
				continue
			}
			if !gt.Valid[z] {
				continue
			}
			inferred = append(inferred, a.mac[z])
			truth = append(truth, gt.MAC[z])
			absErr += math.Abs(a.mac[z] - gt.MAC[z])
		}
		if len(inferred) == 0 {
			rep.fail("seed %d: no inferred zone to compare with ground truth", q.Seed)
			continue
		}
		corrs = append(corrs, pearson(inferred, truth))
		maes = append(maes, absErr/float64(len(inferred)))
	}
	if len(corrs) > 0 && mean(corrs) < correlationFloor {
		rep.fail("inferred MAC correlates %.3f with ground truth on average over %d queries, floor %.2f",
			mean(corrs), len(corrs), correlationFloor)
	}
	return maes
}

// zoneAnswer is the per-zone part of an answer, as the engine returns it
// or as the server's zone rows carry it.
type zoneAnswer struct {
	mac, acsd      []float64
	valid, labeled []bool
}

func answerOf(res *core.Result) zoneAnswer {
	return zoneAnswer{mac: res.MAC, acsd: res.ACSD, valid: res.Valid, labeled: res.Labeled}
}

// runColdQuery streams distinct queries at one engine with no bank: every
// query pays full SPQ labeling, the feature stage and training.
func runColdQuery(cfg config) (*report, error) {
	rep := newReport()
	var eng *core.Engine
	var setups, warms []float64
	for i := 0; i < cfg.size.setups; i++ {
		t0 := time.Now()
		e, warm, err := buildEngine()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		warms = append(warms, ms(warm))
		eng = e
	}
	city := eng.City
	rng := rand.New(rand.NewSource(cfg.seed))
	// One untimed round first, so the measured loop starts with the
	// engine's scratch memory and the heap already grown.
	warmRng := rand.New(rand.NewSource(^cfg.seed))
	for _, cost := range []access.CostKind{access.JourneyTime, access.Generalized} {
		if _, err := eng.Run(query(city, querySeed(warmRng), cost)); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	queries := rep.class("query")
	var lay layers
	var evalQs []core.Query
	var evalAnswers []zoneAnswer
	h := sha256.New()
	// Peak RSS is read at the end of the counted rounds, so every run
	// measures it over the same work whatever its speed.
	var rss float64
	var err error
	before := sampleProcess()
	start := time.Now()
	// A round is one JT and one GAC query, so every run attempts the same
	// mix.
	for round := 0; round < cfg.size.minRounds || time.Since(start) < cfg.duration; round++ {
		counted := round < cfg.size.minRounds
		for _, cost := range []access.CostKind{access.JourneyTime, access.Generalized} {
			q := query(city, querySeed(rng), cost)
			queries.attempted++
			relax0 := counter(relaxCounter)
			res, lat, ex, err := runQuery(eng, q, cfg.trace)
			relax := counter(relaxCounter) - relax0
			if err != nil || res.Degraded != nil {
				queries.failed++
				continue
			}
			queries.latencies = append(queries.latencies, lat)
			label := fmt.Sprintf("seed %d %v", q.Seed, cost)
			checkAnswer(rep, label, res)
			if res.Timing.SPQs == 0 || res.Timing.BankDrained != 0 {
				rep.fail("%s: %d SPQs and %d bank drains without a bank", label, res.Timing.SPQs, res.Timing.BankDrained)
			}
			if cost == access.JourneyTime && len(evalQs) < cfg.size.evalQueries {
				evalQs = append(evalQs, q)
				evalAnswers = append(evalAnswers, answerOf(res))
			}
			if ex != nil {
				lay.add(ex, counted)
				if counted {
					lay.relaxations += relax
				}
			}
			if counted {
				digestResult(h, res)
			}
		}
		if round+1 == cfg.size.minRounds {
			if rss, err = peakRSSMiB("self"); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start)
	after := sampleProcess()
	reportInProcess(rep, before, after, queries.attempted, elapsed, setups, rss)
	reportLatency(rep, queries)
	maes := groundTruthCheck(rep, eng, evalQs, evalAnswers)
	rep.endToEnd["jt_mae_s"] = metric{mean(maes), "s"}
	if cfg.trace {
		lay.tracingOverhead = tracingOverhead(eng, evalQs)
		lay.report(rep)
		rep.perLayer["feature_warm_ms"] = metric{median(warms), "ms"}
		if err := prepLayers(rep, city, cfg.size.setups); err != nil {
			return nil, err
		}
	}
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))
	return rep, nil
}

// tracingOverhead runs up to tracingPairs of the queries once untraced
// and once traced, in alternating order, after the measured loop, and
// returns each pair's traced latency minus its untraced one in
// milliseconds.
func tracingOverhead(eng *core.Engine, qs []core.Query) []float64 {
	var out []float64
	for i, q := range qs[:min(len(qs), tracingPairs)] {
		var plain, traced time.Duration
		for k := 0; k < 2; k++ {
			if (k == 0) == (i%2 == 0) {
				_, plain, _, _ = runQuery(eng, q, false)
			} else {
				_, traced, _, _ = runQuery(eng, q, true)
			}
		}
		out = append(out, ms(traced-plain))
	}
	return out
}

// runRepeatQuery cycles a fixed set of queries against one label-bank
// segment warmed in set-up: every trip drains from the bank, so the
// feature stage and training are what remains.
func runRepeatQuery(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := make([]int64, cfg.size.repeatSet)
	for i := range seeds {
		seeds[i] = querySeed(rng)
	}
	var eng *core.Engine
	var seg *bank.Segment
	var setups, warms []float64
	for i := 0; i < cfg.size.repeatSetups; i++ {
		t0 := time.Now()
		e, warm, err := buildEngine()
		if err != nil {
			return nil, err
		}
		s := bank.New(bank.Config{}).Segment(e.City.Name, 1)
		for _, sd := range seeds {
			q := query(e.City, sd, access.JourneyTime)
			q.Bank = s
			if _, err := e.Run(q); err != nil {
				return nil, fmt.Errorf("warming the bank: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		warms = append(warms, ms(warm))
		eng, seg = e, s
	}
	city := eng.City
	qs := make([]core.Query, len(seeds))
	refs := make([]*core.Result, len(seeds))
	for i, sd := range seeds {
		qs[i] = query(city, sd, access.JourneyTime)
		ref, err := eng.Run(qs[i])
		if err != nil {
			return nil, fmt.Errorf("bank-less reference run: %w", err)
		}
		refs[i] = ref
		qs[i].Bank = seg
	}

	queries := rep.class("query")
	var lay layers
	h := sha256.New()
	// Peak RSS is read at the end of the counted rounds, so every run
	// measures it over the same work whatever its speed.
	var rss float64
	var err error
	before := sampleProcess()
	start := time.Now()
	// A round is one pass over the set. Two passes are the minimum, so the
	// counted rounds cover every query twice.
	minRounds := max(2, cfg.size.minRounds*2/len(qs))
	for round := 0; round < minRounds || time.Since(start) < cfg.duration; round++ {
		counted := round < minRounds
		for i, q := range qs {
			queries.attempted++
			relax0 := counter(relaxCounter)
			res, lat, ex, err := runQuery(eng, q, cfg.trace)
			relax := counter(relaxCounter) - relax0
			if err != nil || res.Degraded != nil {
				queries.failed++
				continue
			}
			queries.latencies = append(queries.latencies, lat)
			label := "seed " + strconv.FormatInt(q.Seed, 10)
			if !sameAnswer(res, refs[i]) {
				rep.fail("%s: bank-served answer differs from the bank-less run", label)
			}
			if res.Timing.SPQs != 0 || res.Timing.BankDrained == 0 {
				rep.fail("%s: %d SPQs and %d bank drains on a warm segment", label, res.Timing.SPQs, res.Timing.BankDrained)
			}
			checkAnswer(rep, label, res)
			if ex != nil {
				lay.add(ex, counted)
				if counted {
					lay.relaxations += relax
				}
			}
			if counted {
				digestResult(h, res)
			}
		}
		if round+1 == minRounds {
			if rss, err = peakRSSMiB("self"); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start)
	after := sampleProcess()
	reportInProcess(rep, before, after, queries.attempted, elapsed, setups, rss)
	reportLatency(rep, queries)
	answers := make([]zoneAnswer, len(refs))
	for i, r := range refs {
		answers[i] = answerOf(r)
	}
	maes := groundTruthCheck(rep, eng, qs[:min(len(qs), cfg.size.evalQueries)], answers)
	rep.endToEnd["jt_mae_s"] = metric{mean(maes), "s"}
	if cfg.trace {
		lay.tracingOverhead = tracingOverhead(eng, qs)
		lay.report(rep)
		rep.perLayer["feature_warm_ms"] = metric{median(warms), "ms"}
		if err := prepLayers(rep, city, cfg.size.setups); err != nil {
			return nil, err
		}
	}
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))
	return rep, nil
}
