package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"isomap/internal/contour"
)

// queryPaths is the full cacheable query surface for one deployment,
// covering every artifact kind the cache holds.
func queryPaths(id string) []string {
	return []string{
		"/v1/deployments/" + id + "/levels/0/polyline",
		"/v1/deployments/" + id + "/levels/1/polyline",
		"/v1/deployments/" + id + "/classify?x=17.3&y=24.9",
		"/v1/deployments/" + id + "/range?x0=5&y0=5&x1=45&y1=45&rows=6&cols=6",
		"/v1/deployments/" + id + "/raster?rows=24&cols=24",
		"/v1/deployments/" + id + "/raster?rows=16&cols=16&format=pgm",
	}
}

// TestCacheEquivalence is the fast lane's correctness anchor: for every
// cacheable query, the cold (rendered) bytes, the warm (cached) bytes and
// bytes rendered from an oracle full rebuild of the published map must be
// identical — and the warm fetch must be a counted cache hit.
func TestCacheEquivalence(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 19, Oracle: true, OracleRes: 32})
	postRound(t, ts, "d0")
	postRound(t, ts, "d0")
	d := s.deps["d0"]
	sn := d.snap.Load()

	// Oracle: a sequential rebuild of the snapshot's reports, rendered
	// through the same encoders the handlers use.
	full := contour.Reconstruct(sn.input, d.levels, d.bounds, sn.sinkValue, d.opts)

	oracle := map[string][]byte{}
	for _, idx := range []int{0, 1} {
		segs := full.BoundarySegments(idx)
		out := make([][4]float64, 0, len(segs))
		for _, sg := range segs {
			out = append(out, [4]float64{sg.A.X, sg.A.Y, sg.B.X, sg.B.Y})
		}
		b, err := encodeJSON(map[string]any{
			"version": sn.version, "level": d.levels.Values()[idx], "segments": out,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle[queryPaths("d0")[idx]] = b
	}
	ra := full.RasterWorkers(24, 24, 1)
	b, err := encodeJSON(map[string]any{"version": sn.version, "rows": 24, "cols": 24, "cells": ra.Cells})
	if err != nil {
		t.Fatal(err)
	}
	oracle["/v1/deployments/d0/raster?rows=24&cols=24"] = b
	oracle["/v1/deployments/d0/raster?rows=16&cols=16&format=pgm"] =
		renderPGM(full.RasterWorkers(16, 16, 1), d.levels.Count())

	for _, path := range queryPaths("d0") {
		missesBefore, hitsBefore := counter("cache_misses"), counter("cache_hits")
		c1, e1, cold := fetch(t, ts, path)
		c2, e2, warm := fetch(t, ts, path)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("GET %s: status %d then %d", path, c1, c2)
		}
		if e1 != sn.etag || e2 != sn.etag {
			t.Fatalf("GET %s: ETags %q, %q; want %q", path, e1, e2, sn.etag)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("GET %s: warm bytes diverge from cold (%d vs %d bytes)", path, len(warm), len(cold))
		}
		if want, ok := oracle[path]; ok && !bytes.Equal(cold, want) {
			t.Fatalf("GET %s: served bytes diverge from oracle rebuild render\n got: %.120s\nwant: %.120s", path, cold, want)
		}
		if counter("cache_misses") != missesBefore+1 {
			t.Fatalf("GET %s: cold fetch not counted as exactly one miss", path)
		}
		if counter("cache_hits") != hitsBefore+1 {
			t.Fatalf("GET %s: warm fetch not counted as a hit", path)
		}
	}
	// Float-spelling variants of one classify point share an entry.
	missesBefore := counter("cache_misses")
	_, _, a := fetch(t, ts, "/v1/deployments/d0/classify?x=17.3&y=24.9")
	_, _, b2 := fetch(t, ts, "/v1/deployments/d0/classify?x=1.73e1&y=24.90")
	if !bytes.Equal(a, b2) || counter("cache_misses") != missesBefore {
		t.Fatal("equivalent float spellings did not share a cache entry")
	}
}

// TestCacheInvalidationLifecycle walks the cache across the deployment
// state machine: publish purges superseded versions, a failed round
// leaves the last good version's bytes serving (as hits, no re-render),
// and the next successful publish purges them in turn.
func TestCacheInvalidationLifecycle(t *testing.T) {
	plan := NewChaosPlan(ChaosConfig{Seed: 91, DivergeRate: 0.34})
	fires := chaosSchedule(12, func(a int) bool { return plan.Diverge("d0", a) })
	// Need at least two clean publishes before the first divergence so the
	// publish-invalidation arm runs, then a divergence with room to recover.
	if len(fires) == 0 || fires[0] < 3 || fires[len(fires)-1] >= 12 {
		t.Fatalf("chaos seed produced unusable divergence schedule %v; pick another seed", fires)
	}
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 91, Oracle: true, OracleRes: 32, Chaos: plan})
	d := s.deps["d0"]
	paths := queryPaths("d0")

	warm := func() map[string][]byte {
		t.Helper()
		out := make(map[string][]byte, len(paths))
		for _, p := range paths {
			code, _, body := fetch(t, ts, p)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d", p, code)
			}
			out[p] = body
		}
		return out
	}

	// Publish invalidation: after warming version N, publishing N+1 drops
	// every version-N entry — the cache only ever holds the live version.
	postRoundStatus(t, ts, "d0", "")
	warm()
	if n := d.cache.len(); n != len(paths) {
		t.Fatalf("cache holds %d entries after warming %d paths", n, len(paths))
	}
	invBefore := counter("cache_invalidated")
	postRoundStatus(t, ts, "d0", "")
	if n := d.cache.len(); n != 0 {
		t.Fatalf("publish left %d stale entries cached", n)
	}
	if counter("cache_invalidated") != invBefore+int64(len(paths)) {
		t.Fatalf("publish invalidated %d entries, want %d", counter("cache_invalidated")-invBefore, len(paths))
	}

	// Walk to the first divergence; the failed round publishes nothing.
	goodBytes := warm()
	goodETag := d.snap.Load().etag
	attempt := 2
	for !plan.Diverge("d0", attempt+1) {
		postRoundStatus(t, ts, "d0", "")
		goodBytes = warm()
		goodETag = d.snap.Load().etag
		attempt++
	}
	resp, _ := postRoundStatus(t, ts, "d0", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("diverging round: status %d, want 503", resp.StatusCode)
	}
	attempt++

	// Degraded: every query keeps serving the last good version's cached
	// bytes, byte-identical, as hits — the failed round rendered nothing.
	missesBefore, hitsBefore := counter("cache_misses"), counter("cache_hits")
	for _, p := range paths {
		_, etag, body := fetch(t, ts, p)
		if etag != goodETag {
			t.Fatalf("degraded GET %s: ETag %q, want last good %q", p, etag, goodETag)
		}
		if !bytes.Equal(body, goodBytes[p]) {
			t.Fatalf("degraded GET %s: bytes diverge from pre-failure cache", p)
		}
	}
	if counter("cache_misses") != missesBefore {
		t.Fatal("degraded queries re-rendered instead of serving cached bytes")
	}
	if counter("cache_hits") != hitsBefore+int64(len(paths)) {
		t.Fatal("degraded queries were not all counted as cache hits")
	}

	// Recovery publishes a fresh version: old entries purged, new bytes
	// served under the new ETag.
	for plan.Diverge("d0", attempt) {
		postRoundStatus(t, ts, "d0", "")
		attempt++
	}
	resp, out := postRoundStatus(t, ts, "d0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery round: status %d (%v)", resp.StatusCode, out)
	}
	if n := d.cache.len(); n != 0 {
		t.Fatalf("recovery left %d stale entries cached", n)
	}
	newBytes := warm()
	for _, p := range paths[:2] {
		if bytes.Equal(newBytes[p], goodBytes[p]) {
			t.Fatalf("post-recovery GET %s still serves pre-failure bytes", p)
		}
	}
}

// TestCacheLRUEviction: the per-deployment artifact cache is bounded;
// filling it past CacheEntries evicts least-recently-used entries and
// counts them.
func TestCacheLRUEviction(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 41, CacheEntries: 3})
	postRound(t, ts, "d0")
	d := s.deps["d0"]

	evBefore := counter("cache_evictions")
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/v1/deployments/d0/raster?rows=%d&cols=%d", 8+i, 8+i)
		if code, _, _ := fetch(t, ts, path); code != http.StatusOK {
			t.Fatalf("GET %s failed", path)
		}
	}
	if n := d.cache.len(); n != 3 {
		t.Fatalf("cache holds %d entries, want bound 3", n)
	}
	if got := counter("cache_evictions") - evBefore; got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	// The most recent resolutions survived: re-fetching them is all hits.
	missesBefore := counter("cache_misses")
	for i := 3; i < 6; i++ {
		fetch(t, ts, fmt.Sprintf("/v1/deployments/d0/raster?rows=%d&cols=%d", 8+i, 8+i))
	}
	if counter("cache_misses") != missesBefore {
		t.Fatal("recently used entries were evicted before older ones")
	}
}

// TestCacheColdMissSingleflight is the concurrency race for the fill
// path: many concurrent cold requests for one uncached raster must
// coalesce into exactly one render, all receiving identical bytes.
// Run under -race this also proves the fill handoff is properly
// synchronized.
func TestCacheColdMissSingleflight(t *testing.T) {
	_, ts := bootServer(t, Config{Deployments: 1, Seed: 47, RasterInflight: 1})
	postRound(t, ts, "d0")

	const concurrent = 16
	missesBefore := counter("cache_misses")
	hitsBefore, coalescedBefore := counter("cache_hits"), counter("singleflight_coalesced")
	var wg sync.WaitGroup
	bodies := make([][]byte, concurrent)
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/deployments/d0/raster?rows=80&cols=80")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < concurrent; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (coalesced fills must never be shed)", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d received different bytes than request 0", i)
		}
	}
	// Exactly one render ran — RasterInflight is 1, so had any fill not
	// coalesced it would have been shed with a 429 above.
	if got := counter("cache_misses") - missesBefore; got != 1 {
		t.Fatalf("%d renders for one key, want exactly 1", got)
	}
	waited := (counter("cache_hits") - hitsBefore) + (counter("singleflight_coalesced") - coalescedBefore)
	if waited != concurrent-1 {
		t.Fatalf("hits+coalesced = %d, want %d", waited, concurrent-1)
	}
	if counter("singleflight_coalesced") == coalescedBefore {
		t.Log("note: no request coalesced mid-fill (all arrived after fill); timing-dependent but bytes still verified")
	}
}

// TestRestoreCollidingVersion: a restored server that re-reaches a
// version number the dead process also served must serve bytes rendered
// from its *own* ingests, never the other process's cached artifacts —
// even though both publish the same ETag string.
func TestRestoreCollidingVersion(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Deployments: 1, Nodes: 300, Seed: 21, Oracle: true, OracleRes: 32,
		CheckpointDir: dir, CheckpointEvery: 3}

	// Server A: three simulated rounds (checkpoint lands at v3), then a
	// pushed batch X -> v4, cache warmed at v4.
	a, tsA := bootServer(t, cfg)
	for i := 0; i < 3; i++ {
		postRound(t, tsA, "d0")
	}
	rdX, err := a.deps["d0"].src.Next()
	if err != nil {
		t.Fatal(err)
	}
	rdY, err := a.deps["d0"].src.Next()
	if err != nil {
		t.Fatal(err)
	}
	pushBatch := func(ts *httptest.Server, body ingestBody) map[string]any {
		t.Helper()
		payload, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/deployments/d0/rounds", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: status %d (%v)", resp.StatusCode, out)
		}
		return out
	}
	outA := pushBatch(tsA, ingestBody{Reports: rdX.Reports, SinkValue: rdX.SinkValue})
	bytesA := map[string][]byte{}
	for _, p := range queryPaths("d0") {
		_, _, bytesA[p] = fetch(t, tsA, p)
	}

	// Server B: restores at v3, then pushes a *different* batch Y -> v4.
	// Same version number, same ETag string, different content.
	restoresBefore := counter("restores")
	b, tsB := bootServer(t, cfg)
	if counter("restores") != restoresBefore+1 {
		t.Fatal("restart did not restore from the checkpoint")
	}
	if v := b.deps["d0"].version; v != 3 {
		t.Fatalf("restored at version %d, want 3", v)
	}
	outB := pushBatch(tsB, ingestBody{Reports: rdY.Reports, SinkValue: rdY.SinkValue})
	if outA["etag"] != outB["etag"] {
		t.Fatalf("versions did not collide: %v vs %v", outA["etag"], outB["etag"])
	}

	// B's v4 bytes must be self-consistent (cold == warm) and must not be
	// A's v4 bytes: the colliding ETag names different content per
	// process, and the cache never crosses that line.
	diverged := false
	for _, p := range queryPaths("d0") {
		_, etag, cold := fetch(t, tsB, p)
		_, _, warm := fetch(t, tsB, p)
		if etag != outB["etag"] {
			t.Fatalf("GET %s: ETag %q, want %v", p, etag, outB["etag"])
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("GET %s: restored server's warm bytes diverge from its cold render", p)
		}
		if !bytes.Equal(cold, bytesA[p]) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("batches X and Y produced identical bytes on every path; test proves nothing — pick different rounds")
	}
}

// TestParallelIngestWorkersGauge: the configured ingest worker width is
// published as a gauge.
func TestParallelIngestWorkersGauge(t *testing.T) {
	bootServer(t, Config{Deployments: 1, Seed: 3, Workers: 3})
	g := serveVars().Get("parallel_ingest_workers")
	if g == nil {
		t.Fatal("parallel_ingest_workers not published")
	}
	if got := g.(*expvar.Int).Value(); got != 3 {
		t.Fatalf("parallel_ingest_workers = %d, want 3", got)
	}
}

// TestCacheFillPanicReleasesKey: a render that panics must not leave its
// fill registered. The panic reaches the caller, and a second getOrFill
// on the same key and version renders afresh instead of parking forever
// on the dead fill.
func TestCacheFillPanicReleasesKey(t *testing.T) {
	c := newArtifactCache(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("render panic did not reach the caller")
			}
		}()
		c.getOrFill(1, "k", func() ([]byte, string, error) { panic("render failed") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _, err := c.getOrFill(1, "k", func() ([]byte, string, error) { return []byte("ok"), "text/plain", nil })
		if err != nil || string(body) != "ok" {
			t.Errorf("getOrFill after a panicked fill = %q, %v; want \"ok\", nil", body, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("getOrFill blocked on the panicked fill")
	}
}

// TestCacheFillAcrossInvalidate: a fill for version v that finishes
// after invalidate(v+1) still answers its caller but is not stored — it
// would otherwise sit in the cache until the next publish. A fill for
// v+1 that lands before invalidate(v+1) is kept.
func TestCacheFillAcrossInvalidate(t *testing.T) {
	render := func(started, release chan struct{}) func() ([]byte, string, error) {
		return func() ([]byte, string, error) {
			close(started)
			<-release
			return []byte("body"), "text/plain", nil
		}
	}

	c := newArtifactCache(8)
	c.invalidate(1)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if body, _, err := c.getOrFill(1, "k", render(started, release)); err != nil || string(body) != "body" {
			t.Errorf("stale fill returned %q, %v; want \"body\", nil", body, err)
		}
	}()
	<-started
	c.invalidate(2)
	close(release)
	<-done
	if n := c.len(); n != 0 {
		t.Fatalf("fill for v1 finishing after invalidate(2) left %d entries, want 0", n)
	}

	c = newArtifactCache(8)
	c.invalidate(1)
	if _, _, err := c.getOrFill(2, "k", func() ([]byte, string, error) { return []byte("v2"), "text/plain", nil }); err != nil {
		t.Fatal(err)
	}
	c.invalidate(2)
	if n := c.len(); n != 1 {
		t.Fatalf("fill for v2 landing before invalidate(2) left %d entries, want 1", n)
	}
}
