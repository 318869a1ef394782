package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof"
	"strings"
	"testing"
)

func bootServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 300
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

func postRound(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/deployments/"+id+"/rounds", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST rounds: status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerLifecycle covers the serving loop end to end: 503 before the
// first round, rounds advancing versions, ETags changing with content,
// 304s while quiet and readiness gated on every deployment's first
// snapshot — all under oracle verification, unsharded and on a sharded,
// parallel ingest path.
func TestServerLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{Deployments: 2, Seed: 4, FaultEvery: 3, Oracle: true, OracleRes: 48}},
		{"sharded", Config{Deployments: 2, Nodes: 400, Seed: 11, FaultEvery: 3, Oracle: true, Shards: 4, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { testServerLifecycle(t, tc.cfg) })
	}
}

func testServerLifecycle(t *testing.T, cfg Config) {
	_, ts := bootServer(t, cfg)

	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-round readyz: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/deployments/d0/classify?x=5&y=5", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-round classify: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/deployments/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown deployment: status %d, want 404", resp.StatusCode)
	}

	r1 := postRound(t, ts, "d0")
	etag1 := r1["etag"].(string)
	if etag1 == "" || !strings.HasPrefix(etag1, `"d0-v`) {
		t.Fatalf("bad etag %q", etag1)
	}
	if r1["reports"].(float64) == 0 {
		t.Fatal("round 1 delivered no reports")
	}

	var meta map[string]any
	resp := getJSON(t, ts, "/v1/deployments/d0", &meta)
	if resp.Header.Get("ETag") != etag1 {
		t.Fatalf("meta ETag %q, want %q", resp.Header.Get("ETag"), etag1)
	}
	if meta["version"].(float64) != 1 {
		t.Fatalf("version %v, want 1", meta["version"])
	}

	// Conditional request against the current version: 304, no body work.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/deployments/d0/classify?x=5&y=5", nil)
	req.Header.Set("If-None-Match", etag1)
	nm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nm.Body.Close()
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional classify: status %d, want 304", nm.StatusCode)
	}

	// Rounds 2..4 (round 3 crash-faulted) must keep the oracle green and
	// move the ETag every time.
	prev := etag1
	for round := 2; round <= 4; round++ {
		r := postRound(t, ts, "d0")
		if r["etag"].(string) == prev {
			t.Fatalf("round %d: etag did not change", round)
		}
		prev = r["etag"].(string)
		if round == 3 && r["faulted"] != true {
			t.Fatalf("round 3 not faulted: %v", r)
		}
		if r["reports"].(float64) == 0 {
			t.Fatalf("round %d delivered no reports", round)
		}
	}

	// The old ETag now misses: full response with the new tag.
	req.Header.Set("If-None-Match", etag1)
	hit, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hit.Body.Close()
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional: status %d, want 200", hit.StatusCode)
	}
	if hit.Header.Get("ETag") != prev {
		t.Fatalf("stale conditional served ETag %q, want %q", hit.Header.Get("ETag"), prev)
	}

	// A weak-validator, multi-member If-None-Match matches the live tag
	// too (RFC 9110 §13.1.2).
	req.Header.Set("If-None-Match", etag1+", W/"+prev)
	weak, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	weak.Body.Close()
	if weak.StatusCode != http.StatusNotModified {
		t.Fatalf("weak list conditional: status %d, want 304", weak.StatusCode)
	}

	// Deployments are independent: d1 has seen no rounds, and readiness
	// waits for it.
	if resp := getJSON(t, ts, "/v1/deployments/d1/classify?x=1&y=1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("d1 classify: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with d1 unpublished: status %d, want 503", resp.StatusCode)
	}
	postRound(t, ts, "d1")
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after every first round: status %d, want 200", resp.StatusCode)
	}
}

// TestServerQueryEndpoints exercises polylines, range classification and
// both raster formats against one settled deployment.
func TestServerQueryEndpoints(t *testing.T) {
	_, ts := bootServer(t, Config{Deployments: 1, Seed: 6, Oracle: true, OracleRes: 40})
	postRound(t, ts, "d0")

	var poly struct {
		Segments [][4]float64 `json:"segments"`
		Level    float64      `json:"level"`
	}
	getJSON(t, ts, "/v1/deployments/d0/levels/0/polyline", &poly)
	if poly.Level == 0 {
		t.Fatalf("polyline level missing: %+v", poly)
	}
	if resp := getJSON(t, ts, "/v1/deployments/d0/levels/99/polyline", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range level: status %d, want 400", resp.StatusCode)
	}

	var cls struct {
		Class *int `json:"class"`
	}
	getJSON(t, ts, "/v1/deployments/d0/classify?x=25&y=25", &cls)
	if cls.Class == nil {
		t.Fatal("classify returned no class")
	}
	if resp := getJSON(t, ts, "/v1/deployments/d0/classify?x=bad&y=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad classify args: status %d, want 400", resp.StatusCode)
	}

	var rng struct {
		Cells [][]int `json:"cells"`
	}
	getJSON(t, ts, "/v1/deployments/d0/range?x0=10&y0=10&x1=30&y1=30&rows=4&cols=6", &rng)
	if len(rng.Cells) != 4 || len(rng.Cells[0]) != 6 {
		t.Fatalf("range grid shape %dx%d, want 4x6", len(rng.Cells), len(rng.Cells[0]))
	}
	// The range cell centers must agree with pointwise classification.
	var probe struct {
		Class int `json:"class"`
	}
	getJSON(t, ts, "/v1/deployments/d0/classify?x=11.666666666666666&y=12.5", &probe)
	if rng.Cells[0][0] != probe.Class {
		t.Fatalf("range cell (0,0) = %d, pointwise = %d", rng.Cells[0][0], probe.Class)
	}
	if resp := getJSON(t, ts, "/v1/deployments/d0/range?x0=5&y0=5&x1=1&y1=9", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range: status %d, want 400", resp.StatusCode)
	}

	var ras struct {
		Cells [][]int `json:"cells"`
		Rows  int     `json:"rows"`
	}
	getJSON(t, ts, "/v1/deployments/d0/raster?rows=20&cols=24", &ras)
	if ras.Rows != 20 || len(ras.Cells) != 20 || len(ras.Cells[0]) != 24 {
		t.Fatalf("raster shape mismatch: %+v", ras.Rows)
	}

	resp, err := http.Get(ts.URL + "/v1/deployments/d0/raster?rows=8&cols=8&format=pgm")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body[:n]), "P2\n8 8\n255\n") {
		t.Fatalf("pgm header = %q", string(body[:n]))
	}
	if resp := getJSON(t, ts, "/v1/deployments/d0/raster?rows=0&cols=5", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-dim raster: status %d, want 400", resp.StatusCode)
	}

	var list struct {
		Deployments []struct {
			ID      string `json:"id"`
			Version int    `json:"version"`
		} `json:"deployments"`
	}
	getJSON(t, ts, "/v1/deployments", &list)
	if len(list.Deployments) != 1 || list.Deployments[0].Version != 1 {
		t.Fatalf("list = %+v", list)
	}

	// Liveness and expvar answer on the query address; pprof does not,
	// even with net/http/pprof registered on the default mux — it only
	// serves on isomapd's separate -pprof listener.
	for _, path := range []string{"/healthz", "/debug/vars"} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts, "/debug/pprof/", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ on the query address: status %d, want 404", resp.StatusCode)
	}
}

// TestServerRejectsHostileQueries: non-finite coordinates and grids whose
// rows*cols product wraps are 400s, and a finite point far outside the
// field is answered instead of pinning a core.
func TestServerRejectsHostileQueries(t *testing.T) {
	_, ts := bootServer(t, Config{Deployments: 1, Seed: 6})
	postRound(t, ts, "d0")
	const huge = "4294967296" // 1<<32: rows*cols wraps to 0 on 64 bits
	for _, path := range []string{
		"/classify?x=NaN&y=1",
		"/classify?x=1&y=NaN",
		"/classify?x=Inf&y=0",
		"/classify?x=0&y=-Inf",
		"/range?x0=NaN&y0=0&x1=10&y1=10",
		"/range?x0=0&y0=0&x1=Inf&y1=10",
		"/range?x0=-Inf&y0=-Inf&x1=Inf&y1=Inf",
		"/range?x0=0&y0=0&x1=10&y1=10&rows=" + huge + "&cols=" + huge,
		"/raster?rows=" + huge + "&cols=" + huge,
		"/raster?rows=4194305&cols=1",
	} {
		if resp := getJSON(t, ts, "/v1/deployments/d0"+path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
	var cls struct {
		Class *int `json:"class"`
	}
	for _, path := range []string{"/classify?x=1e12&y=0", "/classify?x=-1e300&y=1e300"} {
		if resp := getJSON(t, ts, "/v1/deployments/d0"+path, &cls); resp.StatusCode != http.StatusOK || cls.Class == nil {
			t.Errorf("GET %s: status %d, class %v", path, resp.StatusCode, cls.Class)
		}
	}
}

// TestServerPushedReports: POST with a body ingests external reports and
// the oracle still verifies the incremental build over them.
func TestServerPushedReports(t *testing.T) {
	s, ts := bootServer(t, Config{Deployments: 1, Seed: 8, Oracle: true, OracleRes: 32})
	d := s.deps["d0"]

	// Borrow a simulated round's reports, then push them externally.
	rd, err := d.src.Next()
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(ingestBody{Reports: rd.Reports, SinkValue: rd.SinkValue})
	resp, err := http.Post(ts.URL+"/v1/deployments/d0/rounds", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pushed round: status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["reports"].(float64) != float64(len(rd.Reports)) {
		t.Fatalf("ingested %v reports, want %d", out["reports"], len(rd.Reports))
	}

	bad, err := http.Post(ts.URL+"/v1/deployments/d0/rounds", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", bad.StatusCode)
	}
}
