// Package serve implements the long-lived contour-map server behind
// cmd/isomapd: N concurrent deployments, each fed rounds by a
// sim.RoundSource (or by pushed report batches), serving level-set
// polylines, point/range classification and raster tiles over HTTP from
// versioned snapshots. A round's map is contour.ReconstructWorkers over
// that round's reports alone, as the paper's sink rebuilds each isolevel
// (Sec. 3.4); a snapshot holds the reports next to their map, and the
// deployment keeps no other reconstruction state.
//
// Consistency model: every successful ingest produces an immutable
// snapshot carrying a strong ETag "<id>-v<version>". Query responses set
// the ETag and honor If-None-Match (RFC 9110 weak comparison over the
// full entity-tag list) with 304s, so pollers pay nothing while a
// deployment is quiet. Snapshots swap atomically; in-flight queries keep
// serving the map they started with. In oracle mode the server verifies
// each pooled build byte-for-byte against a sequential Reconstruct of the
// same reports before publishing it, which catches level-pool
// nondeterminism.
//
// Failure model: every failure mode of the ingest path is a recoverable,
// observable state, never silent corruption. A round whose source fails,
// whose build panics or whose oracle check diverges publishes nothing and
// leaves nothing behind: queries keep answering from the last good
// snapshot, flagged degraded with staleness metadata (Warning header,
// X-Stale-Rounds, state in the meta document), and the next successful
// round publishes from its own reports, exactly what a server without
// the failure would have published. A Supervisor (supervisor.go) drives
// rounds in the background with bounded exponential backoff and a
// crash-loop breaker surfaced through /readyz; checkpoints
// (checkpoint.go) make the whole state survive a process restart
// byte-identically. chaos.go injects seeded faults into exactly these
// paths to prove recovery.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/sim"
)

// vars aggregates server counters across all deployments under the
// process expvar page (shared with the PR 5 round instrumentation).
// Published once: tests boot many servers in one process.
var (
	varsOnce sync.Once
	vars     *expvar.Map
)

func serveVars() *expvar.Map {
	varsOnce.Do(func() { vars = expvar.NewMap("isomapd") })
	return vars
}

// Config parameterizes NewServer.
type Config struct {
	// Deployments is the number of concurrent deployments to own.
	Deployments int
	// Nodes and Seed shape each deployment's scenario; deployment i uses
	// Seed+i so deployments differ but replays reproduce.
	Nodes int
	Seed  int64
	// FaultEvery, when positive, injects faults every FaultEvery-th round
	// of each deployment (see sim.RoundSource).
	FaultEvery int
	// TemporalField selects the evolving field the deployments monitor
	// (a field.TemporalKinds name, seeded per deployment); empty keeps the
	// default silting field. FieldSpeed scales its evolution rate (zero
	// selects 1).
	TemporalField string
	FieldSpeed    float64
	// Delta runs every round on the packet engine's delta-report protocol
	// (sim.RoundSource.Delta): ingests carry the sink's aged merged
	// belief instead of per-round full reports. DeltaExpiry bounds belief
	// staleness in rounds (0 disables aging).
	Delta       bool
	DeltaExpiry int
	// Oracle verifies every round's pooled build against a sequential
	// Reconstruct of the same reports before publishing (expensive; for
	// tests and CI). At a resolved Workers width of 1 the two builds are
	// the same call, so the check is skipped.
	Oracle bool
	// OracleRes is the raster resolution of oracle comparisons; zero
	// selects 64.
	OracleRes int

	// CheckpointDir, when set, persists a per-deployment checkpoint
	// (round counter, published version, the round's reports) there, and
	// NewServer restores deployments from any checkpoint it finds — a
	// restarted server resumes serving byte-identical snapshots instead
	// of losing every deployment back to round 0.
	CheckpointDir string
	// CheckpointEvery checkpoints every Nth published version; zero
	// selects 1 (every publish).
	CheckpointEvery int

	// Shards, when above 1, runs each deployment's faulted simulated
	// rounds on the sharded discrete-event engine (desim.ShardedEngine
	// over a grid partition, via sim.RoundSource.Shards) — the report
	// stream is byte-identical at any shard count; sharding is purely an
	// execution strategy for large served deployments.
	Shards int
	// Workers bounds the server's worker pools: the sharded round engine
	// (sim.RoundSource.Workers), each round's parallel level builds
	// (contour.ReconstructWorkers) and each raster render's row sweep.
	// Zero selects GOMAXPROCS.
	Workers int

	// MaxBodyBytes caps POST /rounds request bodies; zero selects 8 MiB.
	MaxBodyBytes int64
	// RasterInflight bounds concurrent raster renders; excess requests
	// are load-shed with 429 + Retry-After. Zero selects 4.
	RasterInflight int
	// CacheEntries bounds each deployment's response artifact cache (the
	// version-keyed LRU over encoded polyline/classify/range/raster
	// bodies; see cache.go). Zero selects 64.
	CacheEntries int

	// Chaos, when set, injects seeded faults (panics, synthetic
	// divergences, slow rounds) into the ingest path — the serving-layer
	// counterpart of a faults.Plan. Swappable at runtime via SetChaos.
	Chaos *ChaosPlan

	// Logf receives supervisor and checkpoint diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// temporalID canonicalizes the config knobs that change the round
// stream's content beyond (seed, nodes, faultEvery) — the evolving field
// and the reporting protocol — into one checkpoint identity string.
// Empty for the legacy configuration, so pre-temporal checkpoints keep
// restoring.
func (c Config) temporalID() string {
	if c.TemporalField == "" && !c.Delta {
		return ""
	}
	f := c.TemporalField
	if f == "" {
		f = "silting"
	}
	speed := c.FieldSpeed
	if speed <= 0 {
		speed = 1
	}
	mode := "full"
	if c.Delta {
		mode = fmt.Sprintf("delta/exp=%d", c.DeltaExpiry)
	}
	return fmt.Sprintf("%s@%s/%s", f, strconv.FormatFloat(speed, 'g', -1, 64), mode)
}

// snapshot is one published reconstruction; immutable once stored.
type snapshot struct {
	version int
	round   int
	etag    string
	m       *contour.Map
	// input is the round's reports as ingested, m's only input:
	// checkpoints persist it and restore rebuilds m from it.
	input     []core.Report
	sinkValue float64
	reports   int
	faulted   bool
}

// depHealth is a deployment's observable failure state; stored behind an
// atomic pointer (written only under the deployment lock) so the query
// path reads it lock-free.
type depHealth struct {
	// StaleRounds counts failed round attempts since the last publish —
	// how many rounds behind the served snapshot is. The deployment is
	// degraded exactly while it is positive.
	StaleRounds int
	// ConsecFails counts consecutive ingest failures (the supervisor's
	// backoff and breaker input).
	ConsecFails int
	// CrashLooping is set by the supervisor's breaker once ConsecFails
	// crosses its threshold; /readyz reports the deployment not ready.
	CrashLooping bool
	// LastErr is the most recent failure, empty when healthy.
	LastErr string
}

func (h depHealth) state() string {
	if h.StaleRounds > 0 {
		return "degraded"
	}
	return "healthy"
}

// deployment is one monitored network: a round source whose rounds are
// reconstructed into published snapshots. mu serializes ingest (the round
// source and the counters below); published snapshots and health are
// read lock-free.
type deployment struct {
	id     string
	levels field.Levels
	bounds geom.Polygon
	opts   contour.Options
	src    *sim.RoundSource

	mu sync.Mutex
	// version counts published snapshots. Failed rounds publish nothing
	// and a checkpoint restore resumes the count, so the ETag sequence
	// never rewinds.
	version int
	// attempts counts ingest attempts (including failed ones) — the
	// deterministic key of the chaos schedule.
	attempts int

	snap   atomic.Pointer[snapshot]
	health atomic.Pointer[depHealth]

	// cache holds this deployment's encoded response bodies, keyed by
	// snapshot version (cache.go). Always non-nil.
	cache *artifactCache
}

// Server owns the deployments and implements http.Handler.
type Server struct {
	cfg Config
	// workers is Config.Workers resolved (GOMAXPROCS for zero): the
	// level-pool width of every round's build.
	workers   int
	deps      map[string]*deployment
	ids       []string
	mux       *http.ServeMux
	rasterSem chan struct{}
	chaos     atomic.Pointer[ChaosPlan]
	sup       *supervisor
}

// NewServer builds the deployments and their HTTP surface. Building
// materializes each deployment's network (a few hundred ms for large
// node counts) but runs no round: deployments start at version 0 with no
// snapshot, and return 503 for map queries until the first round lands —
// unless Config.CheckpointDir holds a checkpoint for them, in which case
// they resume serving the checkpointed snapshot immediately.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Deployments <= 0 {
		cfg.Deployments = 1
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 600
	}
	if cfg.OracleRes <= 0 {
		cfg.OracleRes = 64
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RasterInflight <= 0 {
		cfg.RasterInflight = 4
	}
	s := &Server{
		cfg:       cfg,
		deps:      make(map[string]*deployment),
		rasterSem: make(chan struct{}, cfg.RasterInflight),
	}
	s.chaos.Store(cfg.Chaos)
	s.workers = cfg.Workers
	if s.workers < 1 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	// Surface the resolved ingest parallelism as a gauge next to the
	// counters.
	g := new(expvar.Int)
	g.Set(int64(s.workers))
	serveVars().Set("parallel_ingest_workers", g)
	runner := sim.NewRunner(1)
	for i := 0; i < cfg.Deployments; i++ {
		sc := sim.Scenario{Nodes: cfg.Nodes, Seed: cfg.Seed + int64(i)}
		env, err := runner.Build(sc)
		if err != nil {
			return nil, fmt.Errorf("serve: deployment %d: %w", i, err)
		}
		id := fmt.Sprintf("d%d", i)
		bounds := field.BoundsRect(env.Field)
		src := &sim.RoundSource{Env: env, FaultEvery: cfg.FaultEvery,
			Shards: cfg.Shards, Workers: cfg.Workers,
			Delta: cfg.Delta, DeltaExpiry: cfg.DeltaExpiry}
		if cfg.TemporalField != "" {
			dyn, err := field.NewTemporal(cfg.TemporalField, env.Field, cfg.FieldSpeed, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("serve: deployment %d: %w", i, err)
			}
			src.Dyn = dyn
		}
		d := &deployment{
			id:     id,
			levels: env.Scenario.Levels,
			bounds: bounds,
			opts:   contour.DefaultOptions(),
			src:    src,
			cache:  newArtifactCache(cfg.CacheEntries),
		}
		d.health.Store(&depHealth{})
		if cfg.CheckpointDir != "" {
			if err := s.restore(d); err != nil {
				return nil, fmt.Errorf("serve: restore %s: %w", id, err)
			}
		}
		s.deps[id] = d
		s.ids = append(s.ids, id)
	}
	s.routes()
	return s, nil
}

// SetChaos swaps the chaos plan (nil disables injection); safe while
// serving.
func (s *Server) SetChaos(p *ChaosPlan) { s.chaos.Store(p) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "deployments": len(s.ids)})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /v1/deployments", s.handleList)
	mux.HandleFunc("GET /v1/deployments/{id}", s.withDep(s.handleMeta))
	mux.HandleFunc("POST /v1/deployments/{id}/rounds", s.withDep(s.handleRound))
	mux.HandleFunc("GET /v1/deployments/{id}/levels/{idx}/polyline", s.withDep(s.handlePolyline))
	mux.HandleFunc("GET /v1/deployments/{id}/classify", s.withDep(s.handleClassify))
	mux.HandleFunc("GET /v1/deployments/{id}/range", s.withDep(s.handleRange))
	mux.HandleFunc("GET /v1/deployments/{id}/raster", s.withDep(s.handleRaster))
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleReady is the readiness probe, split from /healthz liveness: the
// server is ready when every deployment has published a snapshot and
// none is crash-looping. Degraded-but-serving deployments are ready —
// stale answers with staleness metadata beat no answers.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	type blocker struct {
		ID     string `json:"id"`
		Reason string `json:"reason"`
	}
	var blockers []blocker
	for _, id := range s.ids {
		d := s.deps[id]
		if d.snap.Load() == nil {
			blockers = append(blockers, blocker{ID: id, Reason: "no snapshot yet"})
			continue
		}
		if h := d.health.Load(); h.CrashLooping {
			blockers = append(blockers, blocker{ID: id, Reason: "crash-looping: " + h.LastErr})
		}
	}
	if len(blockers) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "blockers": blockers})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "deployments": len(s.ids)})
}

func (s *Server) withDep(h func(http.ResponseWriter, *http.Request, *deployment)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, ok := s.deps[r.PathValue("id")]
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown deployment %q", r.PathValue("id"))
			return
		}
		h(w, r, d)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID      string `json:"id"`
		Version int    `json:"version"`
		Round   int    `json:"round"`
		ETag    string `json:"etag,omitempty"`
		State   string `json:"state"`
	}
	out := make([]item, 0, len(s.ids))
	for _, id := range s.ids {
		d := s.deps[id]
		it := item{ID: id, State: d.health.Load().state()}
		if sn := d.snap.Load(); sn != nil {
			it.Version, it.Round, it.ETag = sn.version, sn.round, sn.etag
		}
		out = append(out, it)
	}
	writeJSON(w, http.StatusOK, map[string]any{"deployments": out})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request, d *deployment) {
	sn, ok := current(w, r, d)
	if !ok {
		return
	}
	h := d.health.Load()
	doc := map[string]any{
		"id":          d.id,
		"version":     sn.version,
		"round":       sn.round,
		"etag":        sn.etag,
		"reports":     sn.reports,
		"sinkValue":   sn.sinkValue,
		"faulted":     sn.faulted,
		"levels":      d.levels.Values(),
		"state":       h.state(),
		"staleRounds": h.StaleRounds,
		"consecFails": h.ConsecFails,
	}
	if h.CrashLooping {
		doc["crashLooping"] = true
	}
	if h.LastErr != "" {
		doc["lastError"] = h.LastErr
	}
	writeJSON(w, http.StatusOK, doc)
}

// ingestBody is the optional POST /rounds payload: pushed reports instead
// of an internally simulated round.
type ingestBody struct {
	Reports   []core.Report `json:"reports"`
	SinkValue float64       `json:"sinkValue"`
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateRound rejects pushed batches that would poison the
// reconstruction: NaN/Inf coordinates, gradients, levels or sink values
// (the serving twin of FuzzGridFieldParse's loader hardening).
// Out-of-range level indices are not an error — Reconstruct drops them.
func validateRound(reports []core.Report, sinkValue float64) error {
	if !isFinite(sinkValue) {
		return fmt.Errorf("sinkValue %v is not finite", sinkValue)
	}
	for i, r := range reports {
		switch {
		case !isFinite(r.Pos.X) || !isFinite(r.Pos.Y):
			return fmt.Errorf("report %d: non-finite position (%v, %v)", i, r.Pos.X, r.Pos.Y)
		case !isFinite(r.Grad.X) || !isFinite(r.Grad.Y):
			return fmt.Errorf("report %d: non-finite gradient (%v, %v)", i, r.Grad.X, r.Grad.Y)
		case !isFinite(r.Level):
			return fmt.Errorf("report %d: non-finite level %v", i, r.Level)
		}
	}
	return nil
}

// handleRound distinguishes client errors (malformed/poisonous payloads:
// 400, oversized: 413) from server-side ingest failures (503 — the
// round published nothing; the last good snapshot keeps serving).
func (s *Server) handleRound(w http.ResponseWriter, r *http.Request, d *deployment) {
	var body ingestBody
	pushed := false
	if r.Body != nil && r.ContentLength != 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var err error
		if body, err = readRound(r.Body, r.ContentLength, s.cfg.MaxBodyBytes); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeErr(w, http.StatusRequestEntityTooLarge, "round body exceeds %d bytes", mbe.Limit)
				return
			}
			writeErr(w, http.StatusBadRequest, "bad round body: %v", err)
			return
		}
		if err := validateRound(body.Reports, body.SinkValue); err != nil {
			serveVars().Add("rejected_rounds", 1)
			writeErr(w, http.StatusBadRequest, "invalid round: %v", err)
			return
		}
		pushed = true
	}
	var (
		sn  *snapshot
		err error
	)
	if pushed {
		sn, err = s.ingest(d, body.Reports, body.SinkValue, 0, false)
	} else {
		sn, err = s.advance(d)
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "round failed: %v", err)
		return
	}
	serveVars().Add("rounds", 1)
	w.Header().Set("ETag", sn.etag)
	writeJSON(w, http.StatusOK, map[string]any{
		"version": sn.version, "round": sn.round, "etag": sn.etag,
		"reports": sn.reports, "faulted": sn.faulted,
	})
}

// advance runs one simulated churn round through the deployment.
func (s *Server) advance(d *deployment) (*snapshot, error) {
	rd, err := s.nextRound(d)
	if err != nil {
		d.mu.Lock()
		d.noteFailure(err)
		d.mu.Unlock()
		serveVars().Add("ingest_failures", 1)
		return nil, err
	}
	return s.ingest(d, rd.Reports, rd.SinkValue, rd.Round, rd.Faulted)
}

// nextRound draws the next simulated round, converting a round-source
// panic into an error: the failure costs one stale round.
func (s *Server) nextRound(d *deployment) (rd *sim.RoundData, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			serveVars().Add("panics_recovered", 1)
			err = fmt.Errorf("serve: %s round source panic: %v", d.id, r)
		}
	}()
	return d.src.Next()
}

// ingest builds one round's map and publishes it as a snapshot — strictly
// in that order: the oracle check (and any panic) happens before the
// publish, and a failed round publishes nothing.
func (s *Server) ingest(d *deployment, reports []core.Report, sinkValue float64, round int, faulted bool) (*snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempts++
	m, err := s.rebuild(d, reports, sinkValue, d.attempts)
	if err != nil {
		d.noteFailure(err)
		serveVars().Add("ingest_failures", 1)
		return nil, err
	}
	d.version++
	if round == 0 {
		round = d.version
	}
	sn := &snapshot{
		version:   d.version,
		round:     round,
		etag:      fmt.Sprintf("%q", fmt.Sprintf("%s-v%d", d.id, d.version)),
		m:         m,
		input:     reports,
		sinkValue: sinkValue,
		reports:   len(reports),
		faulted:   faulted,
	}
	d.snap.Store(sn)
	// Publish-time invalidation: drop cached bodies of every superseded
	// version. A failed round publishes nothing, so a degraded deployment
	// keeps serving the last good version's cached bytes; the success
	// that ends it lands here and purges them.
	d.cache.invalidate(sn.version)
	d.noteSuccess()
	serveVars().Add("updates", 1)
	if s.cfg.CheckpointDir != "" && d.version%s.cfg.CheckpointEvery == 0 {
		// Checkpoint failures must not fail the round: serving degrades
		// to restart-from-zero durability, observably.
		if err := s.writeCheckpoint(d, sn); err != nil {
			serveVars().Add("checkpoint_errors", 1)
			s.logf("serve: %s checkpoint: %v", d.id, err)
		} else {
			serveVars().Add("checkpoints", 1)
		}
	}
	return sn, nil
}

// rebuild builds the round's map at the server's pool width under panic
// recovery and, in oracle mode, checks it before anything is published.
// The map is a function of this round's reports alone, so a failure
// leaves nothing to discard: the deployment keeps its last snapshot and
// its next round builds from that round's reports.
func (s *Server) rebuild(d *deployment, reports []core.Report, sinkValue float64, attempt int) (m *contour.Map, err error) {
	defer func() {
		if r := recover(); r != nil {
			serveVars().Add("panics_recovered", 1)
			m, err = nil, fmt.Errorf("serve: %s ingest panic: %v", d.id, r)
		}
	}()
	chaos := s.chaos.Load()
	if delay := chaos.SlowDelay(d.id, attempt); delay > 0 {
		time.Sleep(delay)
	}
	m = contour.ReconstructWorkers(reports, d.levels, d.bounds, sinkValue, d.opts, s.workers)
	if chaos.Panic(d.id, attempt) {
		panic("chaos: scheduled ingest panic")
	}
	var derr error
	if chaos.Diverge(d.id, attempt) {
		derr = errors.New("chaos: synthetic oracle divergence")
	} else if s.cfg.Oracle && s.workers > 1 {
		full := contour.Reconstruct(reports, d.levels, d.bounds, sinkValue, d.opts)
		derr = contour.Equivalent(m, full, s.cfg.OracleRes, s.cfg.OracleRes)
	}
	if derr != nil {
		serveVars().Add("divergences", 1)
		return nil, fmt.Errorf("serve: %s oracle divergence: %w", d.id, derr)
	}
	return m, nil
}

// noteFailure and noteSuccess update the lock-free health document; both
// must be called with d.mu held.
func (d *deployment) noteFailure(err error) {
	h := *d.health.Load()
	h.StaleRounds++
	h.ConsecFails++
	h.LastErr = err.Error()
	d.health.Store(&h)
}

func (d *deployment) noteSuccess() {
	d.health.Store(&depHealth{})
}

// current loads the deployment's snapshot, answering 503 before the first
// round and 304 when the client's If-None-Match names it. Degraded
// deployments keep serving their last good snapshot, flagged by a
// Warning header and X-Stale-Rounds. The bool reports whether the caller
// should proceed to build a body.
func current(w http.ResponseWriter, r *http.Request, d *deployment) (*snapshot, bool) {
	sn := d.snap.Load()
	if sn == nil {
		writeErr(w, http.StatusServiceUnavailable, "deployment %s has no rounds yet", d.id)
		return nil, false
	}
	if h := d.health.Load(); h.StaleRounds > 0 {
		w.Header().Set("Warning", fmt.Sprintf("110 isomapd %q",
			fmt.Sprintf("stale: %s %d round(s) behind (%s)", d.id, h.StaleRounds, h.state())))
		w.Header().Set("X-Stale-Rounds", strconv.Itoa(h.StaleRounds))
	}
	w.Header().Set("ETag", sn.etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, sn.etag) {
		serveVars().Add("not_modified", 1)
		w.WriteHeader(http.StatusNotModified)
		return nil, false
	}
	serveVars().Add("queries", 1)
	return sn, true
}

// etagMatch reports whether the If-None-Match header value inm names
// etag, per RFC 9110 §13.1.2: "*" matches any current representation;
// otherwise inm is a comma-separated entity-tag list compared with the
// weak comparison (W/ prefixes ignored on both sides), as If-None-Match
// mandates. Malformed members end the scan without matching — the
// request then gets the full response, the safe failure mode.
func etagMatch(inm, etag string) bool {
	inm = strings.Trim(inm, " \t")
	if inm == "*" {
		return true
	}
	want := strings.TrimPrefix(etag, "W/")
	for {
		inm = strings.TrimLeft(inm, " \t,")
		if inm == "" {
			return false
		}
		tag, rest, ok := scanETag(inm)
		if !ok {
			return false
		}
		if strings.TrimPrefix(tag, "W/") == want {
			return true
		}
		inm = rest
	}
}

// scanETag parses one entity-tag at the head of s, returning the tag
// (W/ prefix retained) and the remainder. Grammar per RFC 9110 §8.8.3:
// an optional W/ then a DQUOTE-delimited run of etagc bytes.
func scanETag(s string) (etag, rest string, ok bool) {
	start := 0
	if strings.HasPrefix(s, "W/") {
		start = 2
	}
	if len(s) < start+2 || s[start] != '"' {
		return "", "", false
	}
	for i := start + 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			return s[:i+1], s[i+1:], true
		case c == 0x21 || (c >= 0x23 && c <= 0x7E) || c >= 0x80:
		default:
			return "", "", false
		}
	}
	return "", "", false
}

// serveCached writes one cached (or just-rendered) body. The render
// closure must read only sn — the immutable snapshot whose version keys
// the cache — so stored bytes can never desync from the ETag current()
// already set from the same snapshot.
func serveCached(w http.ResponseWriter, d *deployment, sn *snapshot, key string, render func() ([]byte, string, error)) {
	body, ct, err := d.cache.getOrFill(sn.version, key, render)
	if err != nil {
		if errors.Is(err, errRasterSaturated) {
			serveVars().Add("rasters_shed", 1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "raster renders saturated; retry")
			return
		}
		writeErr(w, http.StatusInternalServerError, "render failed: %v", err)
		return
	}
	w.Header().Set("Content-Type", ct)
	_, _ = w.Write(body)
}

// fmtFloat canonicalizes a query float for cache keys: distinct raw
// spellings of one value ("5", "5.0", "5e0") share an entry.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (s *Server) handlePolyline(w http.ResponseWriter, r *http.Request, d *deployment) {
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil || idx < 0 || idx >= d.levels.Count() {
		writeErr(w, http.StatusBadRequest, "level index %q outside [0,%d)", r.PathValue("idx"), d.levels.Count())
		return
	}
	sn, ok := current(w, r, d)
	if !ok {
		return
	}
	serveCached(w, d, sn, "poly|"+strconv.Itoa(idx), func() ([]byte, string, error) {
		segs := sn.m.BoundarySegments(idx)
		out := make([][4]float64, 0, len(segs))
		for _, sg := range segs {
			out = append(out, [4]float64{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y})
		}
		b, err := encodeJSON(map[string]any{
			"version": sn.version, "level": d.levels.Values()[idx], "segments": out,
		})
		return b, "application/json", err
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, d *deployment) {
	x, errX := strconv.ParseFloat(r.URL.Query().Get("x"), 64)
	y, errY := strconv.ParseFloat(r.URL.Query().Get("y"), 64)
	if errX != nil || errY != nil || !isFinite(x) || !isFinite(y) {
		writeErr(w, http.StatusBadRequest, "classify needs finite float x and y")
		return
	}
	sn, ok := current(w, r, d)
	if !ok {
		return
	}
	serveCached(w, d, sn, "cls|"+fmtFloat(x)+"|"+fmtFloat(y), func() ([]byte, string, error) {
		b, err := encodeJSON(map[string]any{
			"version": sn.version, "x": x, "y": y,
			"class": sn.m.ClassifyPoint(geom.Point{X: x, Y: y}),
		})
		return b, "application/json", err
	})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, d *deployment) {
	q := r.URL.Query()
	parse := func(key string) (float64, error) { return strconv.ParseFloat(q.Get(key), 64) }
	x0, e1 := parse("x0")
	y0, e2 := parse("y0")
	x1, e3 := parse("x1")
	y1, e4 := parse("y1")
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil || x1 < x0 || y1 < y0 ||
		!isFinite(x0) || !isFinite(y0) || !isFinite(x1) || !isFinite(y1) {
		writeErr(w, http.StatusBadRequest, "range needs x0<=x1, y0<=y1 finite floats")
		return
	}
	rows, cols := intOr(q.Get("rows"), 8), intOr(q.Get("cols"), 8)
	if !gridWithin(rows, cols, 1<<20) {
		writeErr(w, http.StatusBadRequest, "range grid must be 1..1M cells")
		return
	}
	sn, ok := current(w, r, d)
	if !ok {
		return
	}
	key := fmt.Sprintf("rng|%s|%s|%s|%s|%d|%d",
		fmtFloat(x0), fmtFloat(y0), fmtFloat(x1), fmtFloat(y1), rows, cols)
	serveCached(w, d, sn, key, func() ([]byte, string, error) {
		// Classes of the range's rows x cols cell centers, row-major —
		// the same center convention as the full raster.
		cells := make([][]int, rows)
		for i := 0; i < rows; i++ {
			cells[i] = make([]int, cols)
			y := y0 + (y1-y0)*(float64(i)+0.5)/float64(rows)
			for j := 0; j < cols; j++ {
				x := x0 + (x1-x0)*(float64(j)+0.5)/float64(cols)
				cells[i][j] = sn.m.ClassifyPoint(geom.Point{X: x, Y: y})
			}
		}
		b, err := encodeJSON(map[string]any{"version": sn.version, "cells": cells})
		return b, "application/json", err
	})
}

// errRasterSaturated marks a raster fill shed by the inflight bound; the
// handler maps it to 429.
var errRasterSaturated = errors.New("raster renders saturated")

func (s *Server) handleRaster(w http.ResponseWriter, r *http.Request, d *deployment) {
	q := r.URL.Query()
	rows, cols := intOr(q.Get("rows"), 100), intOr(q.Get("cols"), 100)
	if !gridWithin(rows, cols, 1<<22) {
		writeErr(w, http.StatusBadRequest, "raster must be 1..4M cells")
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "pgm" {
		writeErr(w, http.StatusBadRequest, "format must be json or pgm")
		return
	}
	sn, ok := current(w, r, d)
	if !ok {
		return
	}
	key := fmt.Sprintf("ras|%d|%d|%s", rows, cols, format)
	serveCached(w, d, sn, key, func() ([]byte, string, error) {
		// Renders are the expensive misses; cache hits cost nothing, and
		// concurrent misses on one key already coalesce, so the inflight
		// bound only sheds *distinct* cold renders past RasterInflight.
		select {
		case s.rasterSem <- struct{}{}:
			defer func() { <-s.rasterSem }()
		default:
			return nil, "", errRasterSaturated
		}
		// Render from the immutable snapshot map itself: always
		// consistent with the version that keys the bytes, and never
		// waiting behind an ingest.
		ra := sn.m.RasterWorkers(rows, cols, s.cfg.Workers)
		if format == "pgm" {
			return renderPGM(ra, d.levels.Count()), "image/x-portable-graymap", nil
		}
		b, err := encodeJSON(map[string]any{"version": sn.version, "rows": rows, "cols": cols, "cells": ra.Cells})
		return b, "application/json", err
	})
}

// renderPGM renders the class raster as a plain-text PGM tile, darkest at
// the innermost class, into pooled scratch; the returned bytes are a
// private copy safe to cache.
func renderPGM(ra *field.Raster, classes int) []byte {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	fmt.Fprintf(buf, "P2\n%d %d\n255\n", ra.Cols, ra.Rows)
	if classes < 1 {
		classes = 1
	}
	for _, row := range ra.Cells {
		for j, c := range row {
			if j > 0 {
				buf.WriteByte(' ')
			}
			g := 255 - (255*c)/classes
			if g < 0 {
				g = 0
			}
			buf.WriteString(strconv.Itoa(g))
		}
		buf.WriteByte('\n')
	}
	return append([]byte(nil), buf.Bytes()...)
}

// gridWithin reports whether a rows x cols grid has 1..maxCells cells.
// It bounds rows by maxCells/cols instead of multiplying: the product of
// two huge dimensions wraps and would pass the bound.
func gridWithin(rows, cols, maxCells int) bool {
	return rows >= 1 && cols >= 1 && rows <= maxCells/cols
}

func intOr(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}
