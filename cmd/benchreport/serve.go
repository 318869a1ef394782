package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/serve"
	"isomap/internal/stats"
)

// serveEngineEntry compares per-round reconstruction cost under churn:
// the incremental engine against the from-scratch rebuild it must match
// byte for byte. Times are means over the churn rounds.
type serveEngineEntry struct {
	K              int     `json:"k"`
	Rounds         int     `json:"rounds"`
	ChurnFraction  float64 `json:"churn_fraction"`
	IncrementalNs  float64 `json:"incremental_ns_per_round"`
	FullNs         float64 `json:"full_ns_per_round"`
	Speedup        float64 `json:"speedup"`
	CellsReusedPct float64 `json:"cells_reused_pct"`
	RasterRes      int     `json:"raster_res"`
}

// serveLoadEntry is the sustained HTTP serving measurement: concurrent
// clients querying a live deployment while an ingester advances churn
// rounds through it.
type serveLoadEntry struct {
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_seconds"`
	Requests        int     `json:"requests"`
	Rounds          int     `json:"rounds_ingested"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	P50Micros       float64 `json:"p50_us"`
	P99Micros       float64 `json:"p99_us"`
	NotModifiedPct  float64 `json:"not_modified_pct"`
}

// serveCacheEntry is the query-path fast-lane measurement: the same
// query set served cold (every request renders) versus warm (every
// request is a version-keyed cache hit), with the cache counters scraped
// from /debug/vars across the run.
type serveCacheEntry struct {
	DistinctPaths         int     `json:"distinct_paths"`
	WarmRepeats           int     `json:"warm_repeats"`
	ColdQueriesPerSec     float64 `json:"cold_queries_per_sec"`
	WarmQueriesPerSec     float64 `json:"warm_queries_per_sec"`
	WarmSpeedup           float64 `json:"warm_speedup"`
	ColdP50Micros         float64 `json:"cold_p50_us"`
	WarmP50Micros         float64 `json:"warm_p50_us"`
	CacheHits             int64   `json:"cache_hits"`
	CacheMisses           int64   `json:"cache_misses"`
	CacheEvictions        int64   `json:"cache_evictions"`
	SingleflightCoalesced int64   `json:"singleflight_coalesced"`
	HitRatePct            float64 `json:"hit_rate_pct"`
}

// serveIngestScalingEntry is one cell of the parallel-ingest scaling
// table: churn rounds through the incremental engine at a fixed worker
// width (output byte-identical at every width; workers=1 anchors the
// speedup column).
type serveIngestScalingEntry struct {
	Workers    int     `json:"workers"`
	K          int     `json:"k"`
	Rounds     int     `json:"rounds"`
	NsPerRound float64 `json:"ns_per_round"`
	Speedup    float64 `json:"speedup_vs_sequential"`
}

// serveReport is the BENCH_SERVE.json document.
type serveReport struct {
	Generator     string                    `json:"generator"`
	GoMaxProcs    int                       `json:"gomaxprocs"`
	Cores         int                       `json:"cores"`
	HardwareNote  string                    `json:"hardware_note"`
	Engine        []serveEngineEntry        `json:"engine"`
	Load          serveLoadEntry            `json:"load"`
	Cache         serveCacheEntry           `json:"cache"`
	IngestScaling []serveIngestScalingEntry `json:"ingest_scaling"`
}

func runServe(out string, smoke bool) error {
	if out == "" {
		out = "BENCH_SERVE.json"
	}
	rep := serveReport{
		Generator:  "cmd/benchreport -kind serve",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Cores:      runtime.NumCPU(),
	}
	if rep.Cores < 8 {
		rep.HardwareNote = fmt.Sprintf("measured on %d core(s): GOMAXPROCS above the core count timeslices instead of parallelizing, so the ingest scaling table bounds overhead rather than demonstrating speedup", rep.Cores)
	}
	ks := []int{128, 512}
	rounds := 20
	loadFor := 3 * time.Second
	clients := 4
	scalingK, scalingRounds := 512, 12
	warmRepeats := 8
	if smoke {
		ks = []int{128}
		rounds = 8
		loadFor = 600 * time.Millisecond
		clients = 2
		scalingK, scalingRounds = 128, 4
		warmRepeats = 3
	}
	for _, k := range ks {
		e, err := measureServeEngine(k, rounds)
		if err != nil {
			return err
		}
		rep.Engine = append(rep.Engine, e)
	}
	load, err := measureServeLoad(clients, loadFor, smoke)
	if err != nil {
		return err
	}
	rep.Load = load
	cache, err := measureServeCache(smoke, warmRepeats, 1)
	if err != nil {
		return err
	}
	rep.Cache = cache
	for _, w := range []int{1, 2, 4, 8} {
		e, err := measureIngestScaling(scalingK, scalingRounds, w)
		if err != nil {
			return err
		}
		if len(rep.IngestScaling) > 0 {
			e.Speedup = math.Round(rep.IngestScaling[0].NsPerRound/e.NsPerRound*100) / 100
		} else {
			e.Speedup = 1
		}
		rep.IngestScaling = append(rep.IngestScaling, e)
	}
	return writeJSON(out, rep)
}

// churnBenchReports moves a small fraction of the reports, mimicking a
// slowly advancing contour between monitoring rounds.
func churnBenchReports(rng *rand.Rand, reports []core.Report, frac float64) []core.Report {
	out := append([]core.Report(nil), reports...)
	for i := range out {
		if rng.Float64() < frac {
			out[i].Pos.X += rng.NormFloat64() * 0.3
			out[i].Pos.Y += rng.NormFloat64() * 0.3
		}
	}
	return out
}

func measureServeEngine(k, rounds int) (serveEngineEntry, error) {
	const res = 100
	const churn = 0.03
	bounds := geom.Rect(0, 0, 50, 50)
	reports, levels := benchReports(k)
	rng := rand.New(rand.NewSource(int64(k) * 31))

	inc := contour.NewIncremental(levels, bounds, contour.DefaultOptions())
	inc.Update(reports, 9)
	inc.Raster(res, res)

	var incNs, fullNs float64
	for round := 0; round < rounds; round++ {
		reports = churnBenchReports(rng, reports, churn)

		start := time.Now()
		m := inc.Update(reports, 9)
		inc.Raster(res, res)
		incNs += float64(time.Since(start).Nanoseconds())

		arranged := inc.Arranged()
		start = time.Now()
		full := contour.Reconstruct(arranged, levels, bounds, 9, contour.DefaultOptions())
		full.RasterWorkers(res, res, 1)
		fullNs += float64(time.Since(start).Nanoseconds())

		// The speedup only counts if the outputs are the same bytes.
		if err := contour.Equivalent(m, full, 0, 0); err != nil {
			return serveEngineEntry{}, fmt.Errorf("serve bench k=%d round %d: %w", k, round, err)
		}
	}
	st := inc.Stats()
	reusedPct := 0.0
	if tot := st.CellsReused + st.CellsRecomputed; tot > 0 {
		reusedPct = math.Round(float64(st.CellsReused)/float64(tot)*1000) / 10
	}
	return serveEngineEntry{
		K:              k,
		Rounds:         rounds,
		ChurnFraction:  churn,
		IncrementalNs:  math.Round(incNs / float64(rounds)),
		FullNs:         math.Round(fullNs / float64(rounds)),
		Speedup:        math.Round(fullNs/incNs*100) / 100,
		CellsReusedPct: reusedPct,
		RasterRes:      res,
	}, nil
}

// serveCachePaths is the query mix for the cache measurement: raster
// tiles at distinct resolutions (the expensive renders the cache is
// for) plus polylines, classifies and range grids.
func serveCachePaths(smoke bool) []string {
	var paths []string
	resolutions := []int{40, 48, 56, 64, 72, 80, 96, 100}
	if smoke {
		resolutions = []int{32, 40, 48}
	}
	for _, r := range resolutions {
		paths = append(paths, fmt.Sprintf("/v1/deployments/d0/raster?rows=%d&cols=%d", r, r))
	}
	paths = append(paths,
		"/v1/deployments/d0/raster?rows=48&cols=48&format=pgm",
		"/v1/deployments/d0/levels/0/polyline",
		"/v1/deployments/d0/levels/1/polyline",
		"/v1/deployments/d0/classify?x=25&y=25",
		"/v1/deployments/d0/range?x0=10&y0=10&x1=40&y1=40&rows=8&cols=8",
	)
	return paths
}

// scrapeVars reads the isomapd expvar counters over HTTP — the same view
// an operator's scrape sees.
func scrapeVars(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Isomapd map[string]int64 `json:"isomapd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Isomapd, nil
}

// measureServeCache boots a live server and times the same query set
// cold (first request per path after a publish: every one renders) and
// warm (repeated: every one is a cache hit), deriving the fast-lane
// speedup and the hit/miss/eviction counts from /debug/vars deltas.
// passes interleaves that many cold/warm pairs, each cold pass after a
// fresh publish, so a burst of outside load lands on both sides rather
// than on one; the rates, medians and counts cover every pass.
func measureServeCache(smoke bool, warmRepeats, passes int) (serveCacheEntry, error) {
	nodes := 400
	if smoke {
		nodes = 250
	}
	srv, err := serve.NewServer(serve.Config{Deployments: 1, Nodes: nodes, Seed: 23})
	if err != nil {
		return serveCacheEntry{}, err
	}
	if err := srv.AdvanceAll(); err != nil {
		return serveCacheEntry{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveCacheEntry{}, err
	}
	defer ln.Close()
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	paths := serveCachePaths(smoke)
	before, err := scrapeVars(base)
	if err != nil {
		return serveCacheEntry{}, err
	}
	run := func(repeats int) ([]float64, time.Duration, error) {
		lats := make([]float64, 0, repeats*len(paths))
		start := time.Now()
		for rep := 0; rep < repeats; rep++ {
			for _, p := range paths {
				t0 := time.Now()
				resp, err := http.Get(base + p)
				if err != nil {
					return nil, 0, err
				}
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return nil, 0, fmt.Errorf("GET %s: status %d", p, resp.StatusCode)
				}
				lats = append(lats, float64(time.Since(t0).Microseconds()))
			}
		}
		return lats, time.Since(start), nil
	}
	var coldLats, warmLats []float64
	var coldDur, warmDur time.Duration
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			// A new version: every path is cold again.
			if err := srv.AdvanceAll(); err != nil {
				return serveCacheEntry{}, err
			}
		}
		lats, dur, err := run(1)
		if err != nil {
			return serveCacheEntry{}, err
		}
		coldLats, coldDur = append(coldLats, lats...), coldDur+dur
		if lats, dur, err = run(warmRepeats); err != nil {
			return serveCacheEntry{}, err
		}
		warmLats, warmDur = append(warmLats, lats...), warmDur+dur
	}
	after, err := scrapeVars(base)
	if err != nil {
		return serveCacheEntry{}, err
	}

	coldQPS := float64(len(coldLats)) / coldDur.Seconds()
	warmQPS := float64(len(warmLats)) / warmDur.Seconds()
	hits := after["cache_hits"] - before["cache_hits"]
	misses := after["cache_misses"] - before["cache_misses"]
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = math.Round(float64(hits)/float64(hits+misses)*1000) / 10
	}
	return serveCacheEntry{
		DistinctPaths:         len(paths),
		WarmRepeats:           warmRepeats,
		ColdQueriesPerSec:     math.Round(coldQPS),
		WarmQueriesPerSec:     math.Round(warmQPS),
		WarmSpeedup:           math.Round(warmQPS/coldQPS*100) / 100,
		ColdP50Micros:         math.Round(stats.Percentile(coldLats, 50)*10) / 10,
		WarmP50Micros:         math.Round(stats.Percentile(warmLats, 50)*10) / 10,
		CacheHits:             hits,
		CacheMisses:           misses,
		CacheEvictions:        after["cache_evictions"] - before["cache_evictions"],
		SingleflightCoalesced: after["singleflight_coalesced"] - before["singleflight_coalesced"],
		HitRatePct:            hitRate,
	}, nil
}

// measureIngestScaling times churn rounds (update + raster refresh)
// through the incremental engine at one worker width.
func measureIngestScaling(k, rounds, workers int) (serveIngestScalingEntry, error) {
	const res = 100
	const churn = 0.03
	bounds := geom.Rect(0, 0, 50, 50)
	reports, levels := benchReports(k)
	rng := rand.New(rand.NewSource(int64(k) * 37))

	opts := contour.DefaultOptions()
	opts.Workers = workers
	inc := contour.NewIncremental(levels, bounds, opts)
	inc.Update(reports, 9)
	inc.Raster(res, res)

	var ns float64
	for round := 0; round < rounds; round++ {
		reports = churnBenchReports(rng, reports, churn)
		start := time.Now()
		inc.Update(reports, 9)
		inc.Raster(res, res)
		ns += float64(time.Since(start).Nanoseconds())
	}
	return serveIngestScalingEntry{
		Workers:    workers,
		K:          k,
		Rounds:     rounds,
		NsPerRound: math.Round(ns / float64(rounds)),
	}, nil
}

// measureServeLoad boots a real isomapd server on loopback and hammers it:
// clients cycle classify, polyline, meta (conditional) and range queries
// while one ingester advances churn rounds, so the measured tail includes
// snapshot swaps.
func measureServeLoad(clients int, dur time.Duration, smoke bool) (serveLoadEntry, error) {
	nodes := 400
	if smoke {
		nodes = 250
	}
	srv, err := serve.NewServer(serve.Config{Deployments: 1, Nodes: nodes, Seed: 17, FaultEvery: 4})
	if err != nil {
		return serveLoadEntry{}, err
	}
	if err := srv.AdvanceAll(); err != nil {
		return serveLoadEntry{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveLoadEntry{}, err
	}
	defer ln.Close()
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	paths := []string{
		"/v1/deployments/d0/classify?x=25&y=25",
		"/v1/deployments/d0/levels/0/polyline",
		"/v1/deployments/d0",
		"/v1/deployments/d0/range?x0=10&y0=10&x1=40&y1=40&rows=4&cols=4",
	}
	stop := time.Now().Add(dur)
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		latencies   []float64
		notModified int
		roundsDone  int
		firstErr    error
	)
	// Ingester: keeps churn flowing beneath the query load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			resp, err := http.Post(base+"/v1/deployments/d0/rounds", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			roundsDone++
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			etag := ""
			local := make([]float64, 0, 4096)
			local304 := 0
			for i := 0; time.Now().Before(stop); i++ {
				path := paths[i%len(paths)]
				req, err := http.NewRequest("GET", base+path, nil)
				if err != nil {
					continue
				}
				if path == "/v1/deployments/d0" && etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := float64(time.Since(t0).Microseconds())
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if resp.StatusCode == http.StatusNotModified {
					local304++
				}
				if e := resp.Header.Get("ETag"); e != "" {
					etag = e
				}
				_ = resp.Body.Close()
				local = append(local, lat)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			notModified += local304
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return serveLoadEntry{}, firstErr
	}
	if len(latencies) == 0 {
		return serveLoadEntry{}, fmt.Errorf("serve load produced no samples")
	}
	return serveLoadEntry{
		Clients:         clients,
		DurationSeconds: dur.Seconds(),
		Requests:        len(latencies),
		Rounds:          roundsDone,
		QueriesPerSec:   math.Round(float64(len(latencies)) / dur.Seconds()),
		P50Micros:       math.Round(stats.Percentile(latencies, 50)*10) / 10,
		P99Micros:       math.Round(stats.Percentile(latencies, 99)*10) / 10,
		NotModifiedPct:  math.Round(float64(notModified)/float64(len(latencies))*1000) / 10,
	}, nil
}
