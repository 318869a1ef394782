package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serveStatus runs one request through the server's handler in process.
func serveStatus(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w
}

// FuzzPushRound posts arbitrary bytes as a pushed round. The decoder and
// validator must answer 200 (ingested), 400 (malformed or poisonous) or
// 413 (oversized) and nothing else, and every 200 must leave a raster the
// server can render.
func FuzzPushRound(f *testing.F) {
	s, err := NewServer(Config{Deployments: 1, Nodes: 120, Seed: 3, MaxBodyBytes: fuzzBodyLimit})
	if err != nil {
		f.Fatal(err)
	}
	rd, err := s.deps["d0"].src.Next()
	if err != nil {
		f.Fatal(err)
	}
	valid, _ := json.Marshal(ingestBody{Reports: rd.Reports[:min(len(rd.Reports), 8)], SinkValue: rd.SinkValue})
	for _, seed := range []string{
		string(valid),
		`{"reports":[],"sinkValue":1}`,
		`{"reports":[{"level":6,"levelIndex":99,"pos":{"x":1e300,"y":-1e300},"grad":{"x":0,"y":0},"source":-4}],"sinkValue":5}`,
		`{"reports":[{"level":6,"levelIndex":0,"pos":{"x":3,"y":3},"grad":{"x":1,"y":0},"source":1,"retire":true}],"sinkValue":5}`,
		corruptBody(),
		"{not json",
		"null",
		strings.Repeat(" ", 5<<10),
	} {
		f.Add([]byte(seed))
	}
	// Every form the decoder's fast path declines, and a complete value
	// followed by bytes past MaxBodyBytes.
	for _, seed := range append(declinedBodies(), overLimit(fuzzBodyLimit)) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := serveStatus(s, http.MethodPost, "/v1/deployments/d0/rounds", body)
		switch w.Code {
		case http.StatusOK:
			if r := serveStatus(s, http.MethodGet, "/v1/deployments/d0/raster?rows=16&cols=16", nil); r.Code != http.StatusOK {
				t.Fatalf("raster after an accepted round: status %d: %s", r.Code, r.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("pushed round answered %d: %s", w.Code, w.Body.Bytes())
		}
	})
}

// FuzzCheckpointRestore boots a server over arbitrary checkpoint bytes.
// Boot must end in exactly one of: a counted cold start, the identity
// mismatch error, or a counted restore of a well-formed checkpoint —
// never a panic and never an uncounted outcome.
func FuzzCheckpointRestore(f *testing.F) {
	cfg := Config{Deployments: 1, Nodes: 120, Seed: 4}
	good := filepath.Join(f.TempDir(), "good")
	gcfg := cfg
	gcfg.CheckpointDir = good
	s, err := NewServer(gcfg)
	if err != nil {
		f.Fatal(err)
	}
	if w := serveStatus(s, http.MethodPost, "/v1/deployments/d0/rounds", nil); w.Code != http.StatusOK {
		f.Fatalf("seeding round: status %d", w.Code)
	}
	raw, err := os.ReadFile(filepath.Join(good, "d0.json"))
	if err != nil {
		f.Fatal(err)
	}
	// A short valid seed keeps minimizing the inputs derived from it fast.
	var doc checkpointDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		f.Fatal(err)
	}
	doc.Arranged = doc.Arranged[:min(len(doc.Arranged), 3)]
	doc.Reports = len(doc.Arranged)
	valid, _ := json.Marshal(doc)
	for _, seed := range []string{
		string(valid),
		strings.Replace(string(valid), `"seed":4`, `"seed":5`, 1),
		strings.Replace(string(valid), `"version":1`, `"version":0`, 1),
		`{"id":"d0","nodes":120,"seed":4,"faultEvery":0,"version":1,"round":1,"arranged":[{"level":1,"pos":{"x":1e999}}]}`,
		"{torn write",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "d0.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		errs, restores := counter("restore_errors"), counter("restores")
		c := cfg
		c.CheckpointDir = dir
		s, err := NewServer(c)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "checkpoint identity mismatch") {
				t.Fatalf("boot failed with a non-identity error: %v", err)
			}
		case counter("restore_errors") == errs+1:
			if d := s.deps["d0"]; d.snap.Load() != nil || d.version != 0 {
				t.Fatal("a cold start still published a snapshot")
			}
		case counter("restores") == restores+1:
			if r := serveStatus(s, http.MethodGet, "/v1/deployments/d0/raster?rows=16&cols=16", nil); r.Code != http.StatusOK {
				t.Fatalf("raster after a restore: status %d: %s", r.Code, r.Body.Bytes())
			}
		default:
			t.Fatal("boot neither restored, started cold with a count, nor refused the identity")
		}
	})
}
