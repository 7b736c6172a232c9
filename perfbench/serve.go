package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/apiclient"
	"accessquery/internal/core"
	"accessquery/internal/delta"
	"accessquery/internal/serve"
)

// tenant is the city name the server serves the snapshot under.
const tenant = "coventry"

// server is one aqserver process started by the benchmark.
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port of the API
	debug    string // http://host:port of the debug listener
	client   *apiclient.Client
	http     *http.Client
	exited   chan struct{}
	exitErr  error
	logPath  string
	snapPath string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches aqserver on a snapshot and returns once its API
// answers. The flags keep fault injection, SLO burn-tripping and
// slow-query capture off, and no pool is wider than the host.
func startServer(bin, snap, dir string, n int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, fmt.Sprintf("server-%d.log", n))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	s := &server{
		base:     fmt.Sprintf("http://127.0.0.1:%d", port),
		debug:    fmt.Sprintf("http://127.0.0.1:%d", dport),
		exited:   make(chan struct{}),
		logPath:  logPath,
		snapPath: snap,
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
	s.client = apiclient.New(s.base)
	s.client.HTTP = s.http
	s.cmd = exec.Command(bin,
		"-cities", tenant+"="+snap,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport),
		"-workers", strconv.Itoa(min(2, poolWidth())),
		"-queue", "4",
		"-parallelism", strconv.Itoa(poolWidth()),
		"-label-workers", "0",
		"-captures", "0",
		"-slo-burn-trip", "0",
		"-snapshot-dir", filepath.Join(dir, "snapshots"),
		"-log-level", "warn",
	)
	s.cmd.Stdout = logFile
	s.cmd.Stderr = logFile
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.exitErr = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(90 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, _, err := s.client.Cities(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("aqserver exited before it was ready (%v); log: %s", s.exitErr, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("aqserver not ready after 90s; log: %s", tail(logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and waits for it to exit, killing it if it
// does not within 15 seconds.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.http.CloseIdleConnections()
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// queryAnswer is a /v1/query response with its optional explain report.
type queryAnswer struct {
	apiclient.QueryResponse
	Explain *core.ExplainReport `json:"explain"`
}

// query posts one request to /v1/query with per-zone rows, and with the
// run's execution report when explain is set.
func (s *server) query(req serve.Request, explain bool) (*queryAnswer, time.Duration, error) {
	target := s.base + "/v1/query?include_zones=1"
	if explain {
		target += "&explain=1"
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := s.http.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out queryAnswer
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, lat, fmt.Errorf("decoding query answer: %w", err)
	}
	return &out, lat, nil
}

// get fetches a text endpoint of the server.
func (s *server) get(url string) (string, error) {
	resp, err := s.http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// promSeries parses Prometheus text into series → value.
func (s *server) promSeries() (map[string]float64, error) {
	text, err := s.get(s.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// serverCost is the server process's cumulative CPU and allocation
// counters.
type serverCost struct {
	cpu                 time.Duration
	allocBytes, mallocs float64
}

// cost reads the server's CPU from /proc and its allocation totals from the
// runtime.MemStats block the debug listener's heap profile ends with.
func (s *server) cost() (serverCost, error) {
	var c serverCost
	var err error
	if c.cpu, err = procCPU(s.cmd.Process.Pid); err != nil {
		return c, err
	}
	text, err := s.get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return c, err
	}
	found := 0
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			c.allocBytes, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			c.mallocs, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return c, err
		}
	}
	if found != 2 {
		return c, fmt.Errorf("heap profile carries no MemStats totals")
	}
	return c, nil
}

// mutation returns round r's what-if edit: close_route and scale_headway
// alternate while the target walks the city's routes from offset.
func mutation(routes []string, offset, r int) delta.Mutation {
	route := routes[(offset+r)%len(routes)]
	if r%2 == 0 {
		return delta.Mutation{Kind: delta.CloseRoute, Route: route}
	}
	return delta.Mutation{Kind: delta.ScaleHeadway, Route: route, Factor: 2}
}

// freshReq is the request of one fresh query.
func freshReq(seed int64) serve.Request {
	return serve.Request{
		City:           tenant,
		Category:       string(category),
		Cost:           "JT",
		Budget:         budget,
		Model:          string(model),
		Seed:           seed,
		SamplesPerHour: samplesPerHour,
		IncludeZones:   true,
	}
}

// spotCheck is a scenario-epoch answer kept for comparison with an engine
// built from scratch on the mutated city.
type spotCheck struct {
	mut  delta.Mutation
	seed int64
	ans  *queryAnswer
}

// runServeScenario drives a what-if session against an aqserver that
// cold-starts from a snapshot: apply one transit mutation, query the
// scenario epoch fresh and from cache, revert, then query the baseline
// fresh and from cache.
func runServeScenario(cfg config) (*report, error) {
	rep := newReport()
	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), cfg.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: build the engine, write a fresh v2 snapshot, and cold-start
	// a server on it, several times. Each snapshot file is written before
	// its server maps it and never written again.
	var srv *server
	defer func() { srv.stop() }()
	var eng *core.Engine
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		srv.stop()
		srv = nil
		t0 := time.Now()
		e, _, err := buildEngine()
		if err != nil {
			return nil, err
		}
		snap := filepath.Join(dir, fmt.Sprintf("coventry-%d.snap", i))
		if err := e.SaveSnapshot(snap); err != nil {
			return nil, err
		}
		if srv, err = startServer(cfg.serverBin, snap, dir, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		eng = e
	}
	city := eng.City
	nz := len(city.Zones)
	routes := make([]string, 0, len(city.Feed.Routes))
	for _, r := range city.Feed.Routes {
		routes = append(routes, string(r.ID))
	}
	sort.Strings(routes)
	ctx := context.Background()
	_, infos, err := srv.client.Cities(ctx)
	if err != nil || len(infos) != 1 {
		return nil, fmt.Errorf("listing cities: %v", err)
	}
	epoch := infos[0].Epoch

	// One untimed fresh query first, so the measured loop starts with the
	// server's scratch memory and heap already grown.
	if _, _, err := srv.query(freshReq(querySeed(rand.New(rand.NewSource(^cfg.seed)))), false); err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	offset := rng.Intn(len(routes))
	applyC, revertC := rep.class("scenario_apply"), rep.class("revert")
	scenC, queryC, hitC := rep.class("scenario_query"), rep.class("query"), rep.class("hit")
	var lay layers
	var rebuildMS, swapMS, revertMS, overheadMS, runMS, waitMS []float64
	var treesRebuilt, cacheDropped int
	var spots []spotCheck
	var evalQs []core.Query
	var evalAnswers []zoneAnswer
	var lastSeed int64
	var rss float64
	h := sha256.New()

	// fresh sends one uncached query on the current epoch and checks it.
	fresh := func(c *classStats, seed int64, counted bool) *queryAnswer {
		c.attempted++
		ans, lat, err := srv.query(freshReq(seed), cfg.trace)
		label := fmt.Sprintf("fresh seed %d epoch %d", seed, epoch)
		if err != nil || len(ans.Degraded) > 0 || len(ans.Stale) > 0 || ans.Cache.Hit || ans.Cache.EpochStale {
			c.failed++
			return nil
		}
		c.latencies = append(c.latencies, lat)
		if ans.Cache.Epoch != epoch {
			rep.fail("%s: answered by epoch %d", label, ans.Cache.Epoch)
		}
		za := rowsAnswer(ans.Zones, nz)
		if got := jain(za.mac, za.valid); !closeTo(ans.Fairness, got) {
			rep.fail("%s: fairness %v, recomputed Jain index %v", label, ans.Fairness, got)
		}
		if ex := ans.Explain; ex != nil {
			lay.add(ex, counted)
			self := selfSeconds(ex.Trace)
			if job := ex.Trace.Find("job"); job != nil {
				runMS = append(runMS, job.Seconds*1e3)
				overheadMS = append(overheadMS, ms(lat)-job.Seconds*1e3)
			}
			waitMS = append(waitMS, self["queue_wait"]*1e3)
		}
		if counted {
			writeRows(h, ans.Zones)
		}
		return ans
	}
	// reads repeats a fresh query's request; each must be a cache hit on
	// the current epoch with the fresh answer's rows.
	reads := func(seed int64, want *queryAnswer) {
		for k := 0; k < cfg.size.reads; k++ {
			hitC.attempted++
			ans, lat, err := srv.query(freshReq(seed), false)
			if err != nil || !ans.Cache.Hit || ans.Cache.EpochStale || len(ans.Degraded) > 0 || len(ans.Stale) > 0 {
				hitC.failed++
				continue
			}
			hitC.latencies = append(hitC.latencies, lat)
			if ans.Cache.Epoch != epoch || ans.Fairness != want.Fairness || !sameRows(ans.Zones, want.Zones) {
				rep.fail("read of seed %d on epoch %d differs from its fresh answer (epoch %d)", seed, epoch, ans.Cache.Epoch)
			}
		}
	}

	var prom0 map[string]float64
	if cfg.trace {
		if prom0, err = srv.promSeries(); err != nil {
			return nil, err
		}
	}
	before, err := srv.cost()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// A round is one what-if session: apply, fresh scenario query, reads,
	// revert, fresh baseline query, reads.
	for round := 0; round < cfg.size.minRounds || time.Since(start) < cfg.duration; round++ {
		counted := round < cfg.size.minRounds
		mut := mutation(routes, offset, round)

		applyC.attempted++
		t0 := time.Now()
		res, err := srv.client.ApplyScenario(ctx, tenant, []delta.Mutation{mut})
		lat := time.Since(t0)
		if err != nil || res.Delta == nil {
			applyC.failed++
		} else {
			applyC.latencies = append(applyC.latencies, lat)
			br := res.Delta.BlastRadius
			if res.City.Epoch != epoch+1 {
				rep.fail("%v moved the epoch from %d to %d", mut, epoch, res.City.Epoch)
			}
			if br.TreesRebuilt != 2*br.ZonesTouched || br.ZonesTouched <= 0 || br.ZonesTouched > nz {
				rep.fail("%v: %d hop trees rebuilt for %d of %d zones touched", mut, br.TreesRebuilt, br.ZonesTouched, nz)
			}
			epoch = res.City.Epoch
			rebuildMS = append(rebuildMS, float64(br.RebuildMS))
			swapMS = append(swapMS, ms(lat)-float64(br.RebuildMS))
			if counted {
				treesRebuilt += br.TreesRebuilt
				cacheDropped += br.CacheDropped
				fmt.Fprintf(h, "%v %d %d %d\n", mut, br.ZonesTouched, br.TreesRebuilt, br.CacheDropped)
			}
		}

		seed := querySeed(rng)
		if ans := fresh(scenC, seed, counted); ans != nil {
			if len(spots) < cfg.size.spotChecks {
				spots = append(spots, spotCheck{mut, seed, ans})
			}
			reads(seed, ans)
		}

		revertC.attempted++
		t0 = time.Now()
		rv, err := srv.client.RevertScenario(ctx, tenant)
		lat = time.Since(t0)
		if err != nil {
			revertC.failed++
		} else {
			revertC.latencies = append(revertC.latencies, lat)
			revertMS = append(revertMS, ms(lat))
			if rv.City.Epoch != epoch+1 {
				rep.fail("revert moved the epoch from %d to %d", epoch, rv.City.Epoch)
			}
			epoch = rv.City.Epoch
		}

		seed = querySeed(rng)
		lastSeed = seed
		if ans := fresh(queryC, seed, counted); ans != nil {
			if len(evalQs) < cfg.size.evalQueries {
				q := query(city, seed, access.JourneyTime)
				evalQs = append(evalQs, q)
				evalAnswers = append(evalAnswers, rowsAnswer(ans.Zones, nz))
			}
			reads(seed, ans)
		}

		if round+1 == cfg.size.minRounds {
			// Read at the end of the counted rounds, so every run measures
			// peak RSS over the same work: the result cache fills with
			// every round, and a faster run would otherwise hold more.
			if rss, err = peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
				return nil, err
			}
		}
		if round+1 == cfg.size.minRounds && cfg.trace {
			prom, err := srv.promSeries()
			if err != nil {
				return nil, err
			}
			d := func(name string) float64 { return prom[name] - prom0[name] }
			lay.relaxations = int64(d("aq_router_relaxations_total"))
			rep.count("cache_hits", "count", d("aq_serve_cache_hits_total"))
			rep.count("engine_runs", "count", d("aq_serve_cache_misses_total"))
		}
	}
	elapsed := time.Since(start)
	after, err := srv.cost()
	if err != nil {
		return nil, err
	}
	attempted, _ := rep.totals()
	n := float64(attempted)
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	rep.setups = setups
	rep.endToEnd["throughput_ops_s"] = metric{n / elapsed.Seconds(), "1/s"}
	rep.endToEnd["cpu_ms_per_op"] = metric{ms(after.cpu-before.cpu) / n, "ms"}
	rep.endToEnd["alloc_mb_per_op"] = metric{(after.allocBytes - before.allocBytes) / n / (1 << 20), "MiB"}
	rep.perLayer["peak_rss_mb"] = metric{rss, "MiB"}
	reportLatency(rep, queryC)

	// Checks against independent references, after the measured loop:
	// ground truth for baseline answers, and engines built from scratch on
	// the mutated city for scenario answers.
	maes := groundTruthCheck(rep, eng, evalQs, evalAnswers)
	rep.endToEnd["jt_mae_s"] = metric{mean(maes), "s"}
	for _, sc := range spots {
		mutated, _, err := delta.MutateCity(city, []delta.Mutation{sc.mut})
		if err != nil {
			return nil, err
		}
		scratch, err := core.NewEngine(mutated, core.EngineOptions{Interval: interval, Parallelism: poolWidth()})
		if err != nil {
			return nil, err
		}
		want, err := scratch.Run(query(mutated, sc.seed, access.JourneyTime))
		if err != nil {
			return nil, err
		}
		if !sameRows(sc.ans.Zones, resultRows(want)) || sc.ans.Fairness != want.Fairness {
			rep.fail("scenario answer for %v seed %d differs from an engine built from scratch", sc.mut, sc.seed)
		}
	}

	if cfg.trace {
		lay.tracingOverhead = explainOverhead(srv, lastSeed)
		lay.report(rep)
		rep.perLayer["hit_p50_ms"] = metric{ms(percentile(hitC.latencies, 50)), "ms"}
		rep.perLayer["scenario_apply_p50_ms"] = metric{ms(percentile(applyC.latencies, 50)), "ms"}
		rep.perLayer["scenario_query_p50_ms"] = metric{ms(percentile(scenC.latencies, 50)), "ms"}
		rep.perLayer["scenario_rebuild_ms"] = metric{median(rebuildMS), "ms"}
		rep.perLayer["swap_ms"] = metric{median(swapMS), "ms"}
		rep.perLayer["revert_ms"] = metric{median(revertMS), "ms"}
		rep.perLayer["queue_wait_ms"] = metric{median(waitMS), "ms"}
		rep.perLayer["server_run_ms"] = metric{median(runMS), "ms"}
		rep.perLayer["http_overhead_ms"] = metric{median(overheadMS), "ms"}
		rep.perLayer["allocs_per_op"] = metric{(after.mallocs - before.mallocs) / n, "count"}
		rep.count("hop_trees_rebuilt", "count", float64(treesRebuilt))
		rep.count("feature_cache_dropped", "count", float64(cacheDropped))
		if err := snapshotLayers(rep, srv.snapPath, cfg.size.setups); err != nil {
			return nil, err
		}
		if err := prepLayers(rep, city, cfg.size.setups); err != nil {
			return nil, err
		}
	}
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))
	return rep, nil
}

// explainOverhead reads a cached answer tracingPairs times with and
// without ?explain=1, in alternating order, after the measured loop, and
// returns each pair's explained latency minus its plain one in
// milliseconds.
func explainOverhead(srv *server, seed int64) []float64 {
	var out []float64
	for i := 0; i < tracingPairs; i++ {
		var plain, explained time.Duration
		for k := 0; k < 2; k++ {
			explain := (k == 0) != (i%2 == 0)
			_, lat, err := srv.query(freshReq(seed), explain)
			if err != nil {
				return out
			}
			if explain {
				explained = lat
			} else {
				plain = lat
			}
		}
		out = append(out, ms(explained-plain))
	}
	return out
}

// snapshotLayers times the server's cold-start steps in process: loading
// the v2 snapshot and warming the feature caches.
func snapshotLayers(rep *report, path string, reps int) error {
	var loadMS, warmMS []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := core.LoadEngine(path)
		if err != nil {
			return err
		}
		loadMS = append(loadMS, ms(time.Since(t0)))
		t0 = time.Now()
		e.WarmFeatureCaches(poolWidth())
		warmMS = append(warmMS, ms(time.Since(t0)))
		// The engine owns the snapshot mapping its feature extractor reads
		// while warming; if it became unreachable during the call, its
		// finalizer would unmap the file under the extractor (a server
		// keeps its engines referenced by the registry).
		runtime.KeepAlive(e)
	}
	rep.perLayer["snapshot_load_ms"] = metric{median(loadMS), "ms"}
	rep.perLayer["feature_warm_ms"] = metric{median(warmMS), "ms"}
	return nil
}

// rowsAnswer expands the server's per-zone rows (valid zones only) into a
// zone-indexed answer.
func rowsAnswer(rows []apiclient.ZoneRow, nz int) zoneAnswer {
	a := zoneAnswer{
		mac: make([]float64, nz), acsd: make([]float64, nz),
		valid: make([]bool, nz), labeled: make([]bool, nz),
	}
	for _, r := range rows {
		if r.Zone < 0 || r.Zone >= nz {
			continue
		}
		a.mac[r.Zone], a.acsd[r.Zone] = r.MAC, r.ACSD
		a.valid[r.Zone], a.labeled[r.Zone] = true, r.Labeled
	}
	return a
}

// resultRows renders an engine result as the server's zone rows.
func resultRows(res *core.Result) []apiclient.ZoneRow {
	var rows []apiclient.ZoneRow
	for i := range res.MAC {
		if !res.Valid[i] {
			continue
		}
		rows = append(rows, apiclient.ZoneRow{
			Zone: i, MAC: res.MAC[i], ACSD: res.ACSD[i],
			Class: res.Classes[i].String(), Labeled: res.Labeled[i],
		})
	}
	return rows
}

func sameRows(a, b []apiclient.ZoneRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeRows(w io.Writer, rows []apiclient.ZoneRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%d %x %x %s %v\n", r.Zone, r.MAC, r.ACSD, r.Class, r.Labeled)
	}
}
