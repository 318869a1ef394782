package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/serve"
	"isomap/internal/sim"
)

// rasterRes is the side of the served raster a round waits for, and of the
// accuracy rasters.
const rasterRes = sim.RasterRes

// deploySeed fixes each workload's deployment (node placement, routing
// tree, base seabed): the deployment is part of the workload's
// definition, like a dataset. The workload seed picks what evolves on
// it: the field's phase and fault plans, or the drifting features.
const deploySeed = 1

// workload is one benchmark input: a deployment, how its rounds are made,
// and how many client connections query it (a closed loop each).
type workload struct {
	name  string
	kind  string // "packet", "delta" or "push"
	nodes int
	conns int
}

var workloads = []workload{
	// Full-report packet rounds with every 5th round faulted: desim owns
	// the round and the faulted rounds own its p90.
	{name: "packet-4k", kind: "packet", nodes: 4000, conns: 1},
	// Delta-report packet rounds over a drifting field: the delta filter,
	// suppression and the sink's belief merge.
	{name: "delta-drift-4k", kind: "delta", nodes: 4000, conns: 1},
	// Pushed ~1000-report batches and two querying clients, no packet
	// engine: contour update, serve ingest and the artifact cache.
	{name: "push-query", kind: "push", nodes: 16000, conns: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config sizes one run. The benchmark uses fullConfig; the harness's own
// test shrinks every knob.
type config struct {
	// seconds is the measured window; the loop also runs at least
	// minRounds rounds (traced runs: detRounds) and stops at maxSeconds.
	seconds    float64
	maxSeconds float64
	minRounds  int
	// detRounds is the prefix of measured rounds the deterministic counts
	// (bytes, frames, accuracy, events) average over, so that they repeat
	// exactly for a seed whatever the machine's speed.
	detRounds int
	// setups is the number of set-ups per run; setup_s is their median.
	setups int
	// cycle is the length of packet-4k's round cycle: round n runs the
	// field time and fault plan of cycle position (n-1) mod cycle, so the
	// work per round is stationary however many rounds a run reaches (the
	// silting field otherwise keeps changing character). A multiple of
	// the fault period.
	cycle int
	// nodes, when positive, overrides the workload's node count.
	nodes int
	// batches is the size of push-query's pre-generated batch pool.
	batches int
	// oracleEvery checks the shadow engine against a full rebuild every
	// oracleEvery-th round.
	oracleEvery int
	// recorderCap sizes the traced replica round's event ring.
	recorderCap int
}

func fullConfig(seconds float64) config {
	return config{seconds: seconds, maxSeconds: 140, minRounds: 100, detRounds: 50,
		setups: 5, cycle: 50, batches: 24, oracleEvery: 10, recorderCap: 1 << 21}
}

// pushBody is the POST /rounds payload.
type pushBody struct {
	Reports   []core.Report `json:"reports"`
	SinkValue float64       `json:"sinkValue"`
}

// shifted runs a dynamic field's clock ahead by off.
type shifted struct {
	d   field.DynamicField
	off float64
}

func (s shifted) At(t float64) field.Field { return s.d.At(t + s.off) }

// batch is one pre-generated push-query round.
type batch struct {
	reports []core.Report
	sink    float64
	body    []byte
	truth   *field.Raster
	txBytes int64
}

// rig is one set-up deployment: the round source or batch pool, the
// in-process server on loopback, the client connections and the shadow
// engine the served rasters are checked against.
type rig struct {
	w       workload
	cfg     config
	env     *sim.Env
	dyn     field.DynamicField
	src     *sim.RoundSource
	offset  int // rounds the seed shifts the field's clock by
	batches []batch

	hs     *http.Server
	served chan error
	root   string // the server's base URL
	conns  []*conn
	list   []query

	opts    contour.Options
	bounds  geom.Polygon
	shadow  *contour.Incremental
	version int
}

func (r *rig) nodes() int {
	if r.cfg.nodes > 0 {
		return r.cfg.nodes
	}
	return r.w.nodes
}

// newRig builds the deployment, pre-generates push-query's batches and
// starts the server. It runs no round.
func newRig(w workload, cfg config, seed int64, nconns int) (*rig, error) {
	// A shift of at most 8 rounds keeps every seed in the same regime of
	// the evolving field; wider shifts made the seed, not the code, move
	// round_ms and the radio figures by 10-24%. Shifts of 4 and 9 are
	// skipped so the cold round, part of setup_s, is never a faulted one.
	k := int((seed%8 + 8) % 8)
	r := &rig{w: w, cfg: cfg, offset: k + k/4}
	sc := sim.Scenario{Nodes: r.nodes(), Seed: deploySeed}
	if w.kind == "push" {
		sc.Filter = &core.FilterConfig{Enabled: false}
	}
	env, err := sim.NewRunner(1).Build(sc)
	if err != nil {
		return nil, fmt.Errorf("build deployment: %w", err)
	}
	r.env = env
	r.bounds = field.BoundsRect(env.Field)
	r.dyn = field.DefaultSilting(env.Field)
	switch w.kind {
	case "packet":
		r.src = &sim.RoundSource{Env: env, Dyn: r.dyn, PacketRounds: true, FaultEvery: 5}
	case "delta":
		dyn, err := field.NewTemporal("drift", env.Field, 0.2, deploySeed)
		if err != nil {
			return nil, err
		}
		// Delta rounds carry state from round 1 on, so the seed moves the
		// field's clock instead of the round counter.
		r.dyn = shifted{dyn, 0.5 * float64(r.offset)}
		r.src = &sim.RoundSource{Env: env, Dyn: r.dyn, Delta: true, DeltaExpiry: 8}
	case "push":
		if err := r.makeBatches(); err != nil {
			return nil, err
		}
	}
	workers := runtime.NumCPU()
	r.opts = contour.DefaultOptions()
	r.opts.Workers = workers
	r.shadow = contour.NewIncremental(env.Scenario.Levels, r.bounds, r.opts)
	srv, err := serve.NewServer(serve.Config{Deployments: 1, Nodes: r.nodes(), Seed: deploySeed, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.hs = &http.Server{Handler: srv}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.root = "http://" + ln.Addr().String()
	for i := 0; i < nconns; i++ {
		r.conns = append(r.conns, newConn(r.root+"/v1/deployments/d0"))
	}
	r.list = queryList(r.bounds)
	return r, nil
}

// makeBatches pre-generates push-query's input: analytic rounds at
// successive field times from the seed's offset, with their JSON bodies
// and truth rasters.
func (r *rig) makeBatches() error {
	for i := 0; i < r.cfg.batches; i++ {
		f := r.dyn.At(0.5 * float64(r.offset+i+1))
		res, err := core.Run(r.env.Tree, f, r.env.Query, *r.env.Scenario.Filter)
		if err != nil {
			return fmt.Errorf("generate batch %d: %w", i, err)
		}
		body, err := json.Marshal(pushBody{Reports: res.Reports, SinkValue: res.SinkValue})
		if err != nil {
			return err
		}
		r.batches = append(r.batches, batch{reports: res.Reports, sink: res.SinkValue, body: body,
			truth: field.ClassifyRaster(f, r.env.Scenario.Levels, rasterRes, rasterRes), txBytes: res.Counters.TotalTxBytes()})
	}
	return nil
}

// batchFor walks the pool forth and back (0,1,..,P-1,P-2,..,1,0,..), so
// consecutive pushes are always adjacent field times.
func (r *rig) batchFor(round int) *batch {
	p := len(r.batches)
	if p == 1 {
		return &r.batches[0]
	}
	i := (round - 1) % (2*p - 2)
	if i >= p {
		i = 2*p - 2 - i
	}
	return &r.batches[i]
}

// liveHeapMB reads HeapAlloc after a forced collection, once the harness
// has let go of what it holds for itself: the shadow engine and
// push-query's batch pool with the deployment it was generated from. What
// remains live is the server and, on the packet workloads, the
// RoundSource that drives it.
func (r *rig) liveHeapMB() float64 {
	r.shadow, r.batches = nil, nil
	if r.src == nil {
		r.env, r.dyn = nil, nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// close stops the server and waits for it to return.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // a failed graceful stop still ends Serve, awaited below
	<-r.served
	for _, c := range r.conns {
		c.tr.CloseIdleConnections()
	}
}

// conn is one client connection: its own transport, so each closed loop
// owns exactly one TCP connection.
type conn struct {
	tr       *http.Transport
	c        *http.Client
	base     string
	lastETag string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

type response struct {
	status int
	etag   string
	body   []byte
}

func (c *conn) do(method, path string, body []byte, ifNoneMatch string) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	out := response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: b}
	if out.etag != "" {
		c.lastETag = out.etag
	}
	return out, nil
}

// query is one entry of the standard query list.
type query struct {
	surface string
	path    string
	meta    bool // sends If-None-Match with the connection's last ETag
}

// queryList is the standard query list: rasters at three sizes plus a
// PGM tile, each level's polyline, classify on a 4x4 grid, two 8x8
// ranges and the deployment meta document.
func queryList(bounds geom.Polygon) []query {
	x0, y0, x1, y1 := bounds.BoundingBox()
	at := func(fx, fy float64) (float64, float64) { return x0 + fx*(x1-x0), y0 + fy*(y1-y0) }
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var qs []query
	for _, n := range []int{64, 100, 128} {
		qs = append(qs, query{"raster", fmt.Sprintf("/raster?rows=%d&cols=%d", n, n), false})
	}
	qs = append(qs, query{"raster", "/raster?rows=100&cols=100&format=pgm", false})
	for i := 0; i < 4; i++ {
		qs = append(qs, query{"polyline", fmt.Sprintf("/levels/%d/polyline", i), false})
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x, y := at((float64(j)+0.5)/4, (float64(i)+0.5)/4)
			qs = append(qs, query{"classify", "/classify?x=" + num(x) + "&y=" + num(y), false})
		}
	}
	for _, win := range [][4]float64{{0.1, 0.1, 0.5, 0.5}, {0.4, 0.3, 0.9, 0.8}} {
		ax, ay := at(win[0], win[1])
		bx, by := at(win[2], win[3])
		qs = append(qs, query{"range", fmt.Sprintf("/range?x0=%s&y0=%s&x1=%s&y1=%s&rows=8&cols=8",
			num(ax), num(ay), num(bx), num(by)), false})
	}
	return append(qs, query{"meta", "", true})
}

// qsample is one timed query.
type qsample struct {
	surface string
	conn    int
	start   time.Time
	ns      int64
}

// runList issues every query of the list twice (the first request per
// version misses the artifact cache, the second hits it). ok says which
// ETags the answers may carry.
func (c *conn) runList(list []query, id int, ok func(etag string) bool) ([]qsample, []error) {
	out := make([]qsample, 0, 2*len(list))
	var errs []error
	for _, q := range list {
		for k := 0; k < 2; k++ {
			inm := ""
			if q.meta {
				inm = c.lastETag
			}
			t := time.Now()
			resp, err := c.do(http.MethodGet, q.path, nil, inm)
			out = append(out, qsample{surface: q.surface, conn: id, start: t, ns: time.Since(t).Nanoseconds()})
			switch {
			case err != nil:
				errs = append(errs, err)
			case resp.status != http.StatusOK && !(q.meta && resp.status == http.StatusNotModified):
				errs = append(errs, fmt.Errorf("GET %s: status %d: %s", q.path, resp.status, bytes.TrimSpace(resp.body)))
			case !ok(resp.etag):
				errs = append(errs, fmt.Errorf("GET %s: ETag %s names no version this round served", q.path, resp.etag))
			}
		}
	}
	return out, errs
}

// roundRec is one round's measurements and the outputs checked after it.
type roundRec struct {
	n int

	start                   time.Time
	roundNs                 int64 // sense (or push) to the new raster's receipt
	rootNs                  int64 // roundNs plus connection 1's query list
	simNs, pushNs, rasterNs int64
	queryWallNs             int64
	queries                 []qsample
	queryErrs               []error // one per failed query

	reports         []core.Report
	sink            float64
	rd              *sim.RoundData
	b               *batch
	txBytes, frames int64

	body                 []byte // the served 100x100 raster
	pushVersion          int
	pushETag, rasterETag string
	accuracy             float64

	updateNs, shadowRasterNs int64
	updateAllocKB            float64

	// mem is set on the rounds of a traced run only.
	mem *roundMem
}

// roundMem holds the runtime.MemStats deltas taken around one round's
// spans.
type roundMem struct {
	simAllocKB float64
	gcCycles   uint32
	gcPauseNs  uint64
}

func etagFor(version int) string { return strconv.Quote("d0-v" + strconv.Itoa(version)) }

// round runs one closed-loop round: sense (or pick the batch), push,
// fetch the new raster, run the query list; on push-query a second
// connection runs the list concurrently from the round's start. mem
// takes runtime.MemStats around the spans (traced runs). Errors are
// failed operations; check verifies the round's outputs afterwards.
func (r *rig) round(n int, mem bool) (*roundRec, []error) {
	rec := &roundRec{n: n}
	var errs []error
	var m0, m1, m2 runtime.MemStats
	if mem {
		rec.mem = &roundMem{}
		runtime.ReadMemStats(&m0)
	}
	if r.w.kind == "packet" {
		// Outside delta mode a seek costs nothing: rounds are memoryless.
		if err := r.src.SeekRound(r.offset + (n-1)%r.cfg.cycle); err != nil {
			return rec, []error{err}
		}
	}
	prev, next := etagFor(r.version), etagFor(r.version+1)
	var (
		wg     sync.WaitGroup
		q2     []qsample
		q2errs []error
		q2end  time.Time
	)
	rec.start = time.Now()
	// Before the cold round publishes there is nothing to query.
	if len(r.conns) > 1 && r.version > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q2, q2errs = r.conns[1].runList(r.list, 1, func(e string) bool { return e == prev || e == next })
			q2end = time.Now()
		}()
	}
	var body []byte
	if r.src != nil {
		t := time.Now()
		rd, err := r.src.Next()
		rec.simNs = time.Since(t).Nanoseconds()
		if mem {
			runtime.ReadMemStats(&m1)
			rec.mem.simAllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
		}
		if err != nil {
			wg.Wait()
			return rec, append(errs, err)
		}
		rec.rd, rec.reports, rec.sink = rd, rd.Reports, rd.SinkValue
		rec.txBytes, rec.frames = rd.TxBytes, rd.DataFrames
	} else {
		b := r.batchFor(n)
		rec.b, rec.reports, rec.sink, body = b, b.reports, b.sink, b.body
		rec.txBytes, rec.frames = b.txBytes, int64(len(b.reports))
	}
	c := r.conns[0]
	t := time.Now()
	var err error
	if body == nil {
		body, err = json.Marshal(pushBody{Reports: rec.reports, SinkValue: rec.sink})
	}
	var resp response
	if err == nil {
		resp, err = c.do(http.MethodPost, "/rounds", body, "")
	}
	if err == nil && resp.status == http.StatusOK {
		var ack struct {
			Version int `json:"version"`
		}
		err = json.Unmarshal(resp.body, &ack)
		rec.pushVersion, rec.pushETag = ack.Version, resp.etag
	} else if err == nil {
		err = fmt.Errorf("POST /rounds: status %d: %s", resp.status, bytes.TrimSpace(resp.body))
	}
	rec.pushNs = time.Since(t).Nanoseconds()
	if err != nil {
		errs = append(errs, err)
	}
	t = time.Now()
	resp, err = c.do(http.MethodGet, "/raster?rows=100&cols=100", nil, "")
	rec.rasterNs = time.Since(t).Nanoseconds()
	rec.roundNs = time.Since(rec.start).Nanoseconds()
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("GET raster: status %d", resp.status)
	}
	if err != nil {
		errs = append(errs, err)
	}
	rec.body, rec.rasterETag = resp.body, resp.etag
	q1, q1errs := c.runList(r.list, 0, func(e string) bool { return e == next })
	end := time.Now()
	rec.rootNs = end.Sub(rec.start).Nanoseconds()
	if mem {
		runtime.ReadMemStats(&m2)
		rec.mem.gcCycles = m2.NumGC - m0.NumGC
		rec.mem.gcPauseNs = m2.PauseTotalNs - m0.PauseTotalNs
	}
	wg.Wait()
	rec.queryErrs = append(q1errs, q2errs...)
	rec.queries = append(q1, q2...)
	// The query phase runs from the first query sent to the last answered.
	qstart := rec.start
	if len(q2) == 0 && len(q1) > 0 {
		qstart = q1[0].start
	}
	if q2end.After(end) {
		end = q2end
	}
	rec.queryWallNs = end.Sub(qstart).Nanoseconds()
	return rec, errs
}

// check verifies a round's outputs outside the timed window: the ETag
// advanced by exactly one version, the served raster is byte-identical to
// the shadow engine's, and on sampled rounds the shadow equals a full
// rebuild. It also scores the served map against the true field. mem
// measures the shadow update's allocation (traced runs).
func (r *rig) check(rec *roundRec, mem bool) []error {
	var errs []error
	want := etagFor(r.version + 1)
	if rec.pushVersion != r.version+1 || rec.pushETag != want || rec.rasterETag != want {
		errs = append(errs, fmt.Errorf("round %d: push answered version %d ETag %s, raster ETag %s; want version %d ETag %s",
			rec.n, rec.pushVersion, rec.pushETag, rec.rasterETag, r.version+1, want))
	}
	r.version++
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	t := time.Now()
	m := r.shadow.Update(rec.reports, rec.sink)
	rec.updateNs = time.Since(t).Nanoseconds()
	if mem {
		runtime.ReadMemStats(&m1)
		rec.updateAllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}
	t = time.Now()
	ra := r.shadow.Raster(rasterRes, rasterRes)
	rec.shadowRasterNs = time.Since(t).Nanoseconds()
	if want, err := encodeRaster(r.version, ra); err != nil {
		errs = append(errs, err)
	} else if !bytes.Equal(want, rec.body) {
		errs = append(errs, fmt.Errorf("round %d: served raster differs from the shadow engine's (%d vs %d bytes)",
			rec.n, len(rec.body), len(want)))
	}
	if rec.n%r.cfg.oracleEvery == 0 {
		full := contour.Reconstruct(r.shadow.Arranged(), r.env.Scenario.Levels, r.bounds, rec.sink, r.opts)
		if err := contour.Equivalent(m, full, rasterRes, rasterRes); err != nil {
			errs = append(errs, fmt.Errorf("round %d: shadow map differs from a full rebuild: %w", rec.n, err))
		} else if err := contour.EquivalentRaster(ra, full.RasterWorkers(rasterRes, rasterRes, 1)); err != nil {
			errs = append(errs, fmt.Errorf("round %d: shadow raster differs from a full rebuild: %w", rec.n, err))
		}
	}
	var truth *field.Raster
	if rec.b != nil {
		truth = rec.b.truth
	} else {
		truth = field.ClassifyRaster(r.dyn.At(rec.rd.T), r.env.Scenario.Levels, rasterRes, rasterRes)
	}
	rec.accuracy = field.Agreement(ra, truth)
	return errs
}

// encodeRaster renders a raster body exactly as the server does.
func encodeRaster(version int, ra *field.Raster) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{"version": version, "rows": ra.Rows, "cols": ra.Cols, "cells": ra.Cells})
	return buf.Bytes(), err
}
