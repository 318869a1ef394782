package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/sim"
)

// counter reads one isomapd expvar counter (process-global and monotone:
// tests assert deltas, not absolutes).
func counter(name string) int64 {
	v := serveVars().Get(name)
	if v == nil {
		return 0
	}
	return v.(*expvar.Int).Value()
}

func postRoundStatus(t *testing.T, ts *httptest.Server, id, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(ts.URL+"/v1/deployments/"+id+"/rounds", "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getMeta(t *testing.T, ts *httptest.Server, id string) (map[string]any, *http.Response) {
	t.Helper()
	var meta map[string]any
	resp := getJSON(t, ts, "/v1/deployments/"+id, &meta)
	return meta, resp
}

// TestPushedBatchValidation: poisonous payloads are client errors — 400,
// nothing built or published — and oversized bodies 413, never 500. JSON itself
// cannot spell NaN/Inf (the decoder rejects out-of-range literals like
// 1e999 with 400), so the validateRound layer behind it is unit-tested
// directly: it guards the paths that bypass JSON decoding, most
// importantly checkpoint restore.
func TestPushedBatchValidation(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 31, Oracle: true, OracleRes: 32, MaxBodyBytes: 4096})
	postRound(t, ts, "d0")
	versionBefore := s.deps["d0"].version

	cases := []struct {
		name string
		body string
	}{
		{"overflow x", `{"reports":[{"level":6,"levelIndex":0,"pos":{"x":1e999,"y":10},"grad":{"x":1,"y":0},"source":1}],"sinkValue":5}`},
		{"overflow grad", `{"reports":[{"level":6,"levelIndex":0,"pos":{"x":10,"y":10},"grad":{"x":-1e999,"y":0},"source":1}],"sinkValue":5}`},
		{"overflow sink", `{"reports":[],"sinkValue":1e999}`},
		{"nan literal", `{"reports":[{"pos":{"x":NaN,"y":1}}],"sinkValue":5}`},
		{"not json", `{not json`},
	}
	for _, tc := range cases {
		resp, out := postRoundStatus(t, ts, "d0", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%v)", tc.name, resp.StatusCode, out)
		}
	}
	if v := s.deps["d0"].version; v != versionBefore {
		t.Fatalf("rejected batches advanced the version: %d -> %d", versionBefore, v)
	}
	if h := s.deps["d0"].health.Load(); h.StaleRounds != 0 {
		t.Fatalf("rejected batches degraded the deployment: %+v", h)
	}

	// A payload over MaxBodyBytes is 413, not 500.
	big, _ := json.Marshal(ingestBody{Reports: make([]core.Report, 200), SinkValue: 5})
	resp, _ := postRoundStatus(t, ts, "d0", string(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestValidateRound covers the defense-in-depth layer directly: NaN/Inf
// anywhere in a batch (or sink value) is rejected, finite batches pass,
// and CorruptReports output never passes.
func TestValidateRound(t *testing.T) {
	good := core.Report{Level: 6, LevelIndex: 0, Pos: geom.Point{X: 10, Y: 10}, Grad: geom.Vec{X: 1}}
	if err := validateRound([]core.Report{good}, 5); err != nil {
		t.Fatalf("finite round rejected: %v", err)
	}
	mut := func(f func(*core.Report)) []core.Report {
		r := good
		f(&r)
		return []core.Report{r}
	}
	for name, reports := range map[string][]core.Report{
		"nan pos x":  mut(func(r *core.Report) { r.Pos.X = math.NaN() }),
		"inf pos y":  mut(func(r *core.Report) { r.Pos.Y = math.Inf(1) }),
		"nan grad y": mut(func(r *core.Report) { r.Grad.Y = math.NaN() }),
		"inf level":  mut(func(r *core.Report) { r.Level = math.Inf(-1) }),
	} {
		if err := validateRound(reports, 5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateRound([]core.Report{good}, math.NaN()); err == nil {
		t.Error("NaN sink value accepted")
	}
	plan := NewChaosPlan(ChaosConfig{Seed: 3, CorruptRate: 1})
	if err := validateRound(plan.CorruptReports([]core.Report{good, good, good}, "d0", 1), 5); err == nil {
		t.Error("corrupted batch accepted")
	}
}

// TestRasterLoadShedding: past RasterInflight concurrent renders the
// server sheds with 429 + Retry-After instead of queueing.
func TestRasterLoadShedding(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 33, RasterInflight: 2})
	postRound(t, ts, "d0")

	// Fill the semaphore as two in-flight renders would.
	s.rasterSem <- struct{}{}
	s.rasterSem <- struct{}{}
	resp := getJSON(t, ts, "/v1/deployments/d0/raster?rows=8&cols=8", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated raster: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}
	<-s.rasterSem
	<-s.rasterSem
	if resp := getJSON(t, ts, "/v1/deployments/d0/raster?rows=8&cols=8", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drained raster: status %d, want 200", resp.StatusCode)
	}
	// Other endpoints are never shed.
	if resp := getJSON(t, ts, "/v1/deployments/d0/classify?x=5&y=5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d", resp.StatusCode)
	}
}

// chaosSchedule returns the 1-based ingest attempts in [1, n] on which
// the plan fires the given predicate for deployment dep.
func chaosSchedule(n int, pred func(attempt int) bool) []int {
	var out []int
	for a := 1; a <= n; a++ {
		if pred(a) {
			out = append(out, a)
		}
	}
	return out
}

// TestDivergedRoundKeepsLastSnapshot walks the deployment state machine
// through a synthetic oracle divergence: the failed round publishes
// nothing, queries keep serving the last good snapshot with staleness
// metadata, and the next successful round publishes from its own
// reports — all under oracle mode, so that round is verified before
// publishing.
func TestDivergedRoundKeepsLastSnapshot(t *testing.T) {
	plan := NewChaosPlan(ChaosConfig{Seed: 97, DivergeRate: 0.34})
	fires := chaosSchedule(12, func(a int) bool { return plan.Diverge("d0", a) })
	if len(fires) == 0 || fires[0] == 1 {
		t.Fatalf("chaos seed produced unusable divergence schedule %v; pick another seed", fires)
	}
	_, ts := bootServer(t, Config{Deployments: 1, Seed: 35, Oracle: true, OracleRes: 32, Chaos: plan})

	divBefore := counter("divergences")
	// Walk to the first successful round after the first divergence (the
	// schedule may fire several attempts in a row).
	last := fires[0] + 1
	for plan.Diverge("d0", last) {
		last++
	}
	var lastGoodETag string
	sawDiverge, sawRecovery := false, false
	for attempt := 1; attempt <= last; attempt++ {
		resp, out := postRoundStatus(t, ts, "d0", "")
		if plan.Diverge("d0", attempt) {
			sawDiverge = true
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("attempt %d (diverging): status %d, want 503", attempt, resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 carried no Retry-After")
			}
			// Nothing published: the snapshot is untouched.
			meta, mresp := getMeta(t, ts, "d0")
			if meta["state"] != "degraded" {
				t.Fatalf("state after divergence = %v", meta["state"])
			}
			if meta["etag"] != lastGoodETag {
				t.Fatalf("degraded meta serves etag %v, want last good %v", meta["etag"], lastGoodETag)
			}
			if mresp.Header.Get("Warning") == "" || mresp.Header.Get("X-Stale-Rounds") == "" {
				t.Fatalf("degraded response missing staleness headers: %v", mresp.Header)
			}
			// The raster renders from the snapshot, version-consistent
			// with the ETag.
			var ras struct {
				Version int `json:"version"`
			}
			rresp := getJSON(t, ts, "/v1/deployments/d0/raster?rows=8&cols=8", &ras)
			if rresp.StatusCode != http.StatusOK {
				t.Fatalf("degraded raster: status %d", rresp.StatusCode)
			}
			if want := fmt.Sprintf("%q", fmt.Sprintf("d0-v%d", ras.Version)); rresp.Header.Get("ETag") != want {
				t.Fatalf("degraded raster version %d inconsistent with ETag %s", ras.Version, rresp.Header.Get("ETag"))
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: status %d (%v)", attempt, resp.StatusCode, out)
		}
		lastGoodETag = out["etag"].(string)
		if sawDiverge {
			sawRecovery = true
			meta, _ := getMeta(t, ts, "d0")
			if meta["state"] != "healthy" {
				t.Fatalf("state after recovery = %v", meta["state"])
			}
			if meta["staleRounds"].(float64) != 0 {
				t.Fatalf("staleRounds after recovery = %v", meta["staleRounds"])
			}
		}
	}
	if !sawDiverge || !sawRecovery {
		t.Fatalf("walk exercised diverge=%v recovery=%v", sawDiverge, sawRecovery)
	}
	if counter("divergences") <= divBefore {
		t.Fatal("divergences counter did not grow")
	}

	// ETag versions keep ascending across the failed round: no reuse of a
	// version number for different bytes.
	if !strings.Contains(lastGoodETag, "-v") {
		t.Fatalf("bad final etag %q", lastGoodETag)
	}
}

// TestPanicRecovery: a scheduled ingest panic is recovered, counted and
// degrades the deployment — then the next round heals it.
func TestPanicRecovery(t *testing.T) {
	plan := NewChaosPlan(ChaosConfig{Seed: 11, PanicRate: 0.3})
	fires := chaosSchedule(12, func(a int) bool { return plan.Panic("d0", a) })
	if len(fires) == 0 || fires[0] == 1 {
		t.Fatalf("chaos seed produced unusable panic schedule %v; pick another seed", fires)
	}
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 37, Chaos: plan})
	panicsBefore := counter("panics_recovered")
	for attempt := 1; attempt <= fires[0]; attempt++ {
		resp, _ := postRoundStatus(t, ts, "d0", "")
		if plan.Panic("d0", attempt) {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("panicking attempt %d: status %d, want 503", attempt, resp.StatusCode)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: status %d", attempt, resp.StatusCode)
		}
	}
	if counter("panics_recovered") <= panicsBefore {
		t.Fatal("panics_recovered did not grow")
	}
	if h := s.deps["d0"].health.Load(); h.state() != "degraded" {
		t.Fatalf("post-panic health = %+v, want degraded", h)
	}
	// Recovery round.
	s.SetChaos(nil)
	resp, _ := postRoundStatus(t, ts, "d0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery round: status %d", resp.StatusCode)
	}
	if h := s.deps["d0"].health.Load(); h.StaleRounds != 0 {
		t.Fatalf("post-recovery health = %+v", h)
	}
}

// TestRoundSourceFailureDegrades: a round whose source fails publishes
// nothing, and the deployment reads "degraded" in meta, in the list and
// in the Warning header while it is rounds behind; the next success
// makes it "healthy" again.
func TestRoundSourceFailureDegrades(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 43})
	postRound(t, ts, "d0")
	d := s.deps["d0"]
	listState := func() string {
		t.Helper()
		var list struct {
			Deployments []struct {
				State string `json:"state"`
			} `json:"deployments"`
		}
		getJSON(t, ts, "/v1/deployments", &list)
		if len(list.Deployments) != 1 {
			t.Fatalf("list holds %d deployments", len(list.Deployments))
		}
		return list.Deployments[0].State
	}

	// A source without an environment panics in Next.
	d.mu.Lock()
	src := d.src
	d.src = &sim.RoundSource{}
	d.mu.Unlock()
	if resp, out := postRoundStatus(t, ts, "d0", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing source: status %d (%v), want 503", resp.StatusCode, out)
	}
	meta, resp := getMeta(t, ts, "d0")
	if meta["state"] != "degraded" || meta["staleRounds"].(float64) != 1 {
		t.Fatalf("after a source failure meta reads state %v, staleRounds %v; want degraded, 1", meta["state"], meta["staleRounds"])
	}
	if w := resp.Header.Get("Warning"); !strings.Contains(w, "(degraded)") {
		t.Fatalf("Warning header %q does not name the degraded state", w)
	}
	if st := listState(); st != "degraded" {
		t.Fatalf("list state %q after a source failure, want degraded", st)
	}

	d.mu.Lock()
	d.src = src
	d.mu.Unlock()
	postRound(t, ts, "d0")
	meta, resp = getMeta(t, ts, "d0")
	if meta["state"] != "healthy" || meta["staleRounds"].(float64) != 0 || resp.Header.Get("Warning") != "" {
		t.Fatalf("after recovery meta reads state %v, staleRounds %v, Warning %q", meta["state"], meta["staleRounds"], resp.Header.Get("Warning"))
	}
	if st := listState(); st != "healthy" {
		t.Fatalf("list state %q after recovery, want healthy", st)
	}
}

// TestFailedRoundLeavesNothingBehind: a round that panics or diverges
// leaves no state that shapes later rounds. Three same-seed servers take
// the same pushed bodies; one panics on attempt k, one diverges on it and
// one never fails. Every later round serves the same raster JSON and PGM,
// polyline, classify and range bytes on all three, except for the
// embedded version, which the failed round did not advance.
func TestFailedRoundLeavesNothingBehind(t *testing.T) {
	const k, rounds = 2, 5
	cfg := Config{Deployments: 1, Seed: 45, Oracle: true, OracleRes: 32, Workers: 2}
	type server struct {
		s    *Server
		ts   *httptest.Server
		fail *ChaosPlan
	}
	var servers []server
	for _, fail := range []*ChaosPlan{
		nil,
		NewChaosPlan(ChaosConfig{Seed: 1, PanicRate: 1}),
		NewChaosPlan(ChaosConfig{Seed: 1, DivergeRate: 1}),
	} {
		s, ts := bootServer(t, cfg)
		servers = append(servers, server{s, ts, fail})
	}
	var bodies []string
	for i := 0; i < rounds; i++ {
		rd, err := servers[0].s.deps["d0"].src.Next()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(ingestBody{Reports: rd.Reports, SinkValue: rd.SinkValue})
		bodies = append(bodies, string(b))
	}
	versionRe := regexp.MustCompile(`"version":\d+`)
	for attempt := 1; attempt <= rounds; attempt++ {
		var ref map[string][]byte
		for si, sv := range servers {
			failing := attempt == k && sv.fail != nil
			if failing {
				sv.s.SetChaos(sv.fail)
			}
			resp, out := postRoundStatus(t, sv.ts, "d0", bodies[attempt-1])
			sv.s.SetChaos(nil)
			if failing {
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("server %d attempt %d: status %d, want 503", si, attempt, resp.StatusCode)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("server %d attempt %d: status %d (%v)", si, attempt, resp.StatusCode, out)
			}
			if attempt <= k {
				continue
			}
			version := attempt
			if sv.fail != nil {
				version--
			}
			if want := fmt.Sprintf("%q", fmt.Sprintf("d0-v%d", version)); out["etag"] != want {
				t.Fatalf("server %d attempt %d: ETag %v, want %s", si, attempt, out["etag"], want)
			}
			got := map[string][]byte{}
			for _, p := range queryPaths("d0") {
				code, _, body := fetch(t, sv.ts, p)
				if code != http.StatusOK {
					t.Fatalf("server %d GET %s: status %d", si, p, code)
				}
				got[p] = versionRe.ReplaceAll(body, []byte(`"version":_`))
			}
			if ref == nil {
				ref = got
				continue
			}
			for p, want := range ref {
				if !bytes.Equal(got[p], want) {
					t.Fatalf("server %d attempt %d GET %s: bytes differ from the server that never failed", si, attempt, p)
				}
			}
		}
	}
}

// TestSupervisorBreakerReadyz: under a panic-everything chaos plan the
// supervisor backs off, trips the crash-loop breaker, and /readyz goes
// not-ready naming the deployment; lifting the chaos heals it and
// /readyz flips back — within a bounded number of rounds.
func TestSupervisorBreakerReadyz(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 39})
	postRound(t, ts, "d0") // readiness needs a first snapshot

	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-chaos readyz: status %d", resp.StatusCode)
	}
	s.SetChaos(NewChaosPlan(ChaosConfig{Seed: 1, PanicRate: 1}))
	s.Start(SupervisorConfig{Interval: time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, BreakerAfter: 3})
	defer s.Stop()

	waitFor(t, 10*time.Second, "breaker trip", func() bool {
		resp := getJSON(t, ts, "/readyz", nil)
		return resp.StatusCode == http.StatusServiceUnavailable && s.deps["d0"].health.Load().CrashLooping
	})
	meta, _ := getMeta(t, ts, "d0")
	if meta["crashLooping"] != true || meta["state"] != "degraded" {
		t.Fatalf("crash-looping meta = %v", meta)
	}

	s.SetChaos(nil)
	waitFor(t, 10*time.Second, "recovery", func() bool {
		resp := getJSON(t, ts, "/readyz", nil)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		h := s.deps["d0"].health.Load()
		return !h.CrashLooping && h.StaleRounds == 0
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBackoffDelay pins the supervisor's backoff curve: doubling from
// base, capped at max, jitter within ±20%.
func TestBackoffDelay(t *testing.T) {
	cfg := SupervisorConfig{Interval: time.Second}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for fails := 1; fails <= 10; fails++ {
		want := cfg.BackoffBase << (fails - 1)
		if want > cfg.BackoffMax {
			want = cfg.BackoffMax
		}
		for i := 0; i < 50; i++ {
			got := backoffDelay(cfg, fails, rng)
			lo := time.Duration(float64(want) * 0.79)
			hi := time.Duration(float64(want) * 1.21)
			if got < lo || got > hi {
				t.Fatalf("fails=%d: delay %v outside [%v, %v]", fails, got, lo, hi)
			}
		}
	}
}
