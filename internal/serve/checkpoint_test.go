package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"isomap/internal/contour"
)

// fetch returns status, ETag and body bytes of one GET.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), b
}

// compareServing asserts two servers answer every query surface
// byte-identically for one deployment: ETag, polyline JSON, raster JSON
// and PGM bytes, classification.
func compareServing(t *testing.T, a, b *httptest.Server, when string) {
	t.Helper()
	// Meta holds nothing a restore may change, so it compares whole.
	ma, ra := getMeta(t, a, "d0")
	mb, rb := getMeta(t, b, "d0")
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("%s: meta %v vs %v", when, ma, mb)
	}
	if ra.Header.Get("ETag") != rb.Header.Get("ETag") {
		t.Fatalf("%s: meta ETag %q vs %q", when, ra.Header.Get("ETag"), rb.Header.Get("ETag"))
	}
	for _, path := range []string{
		"/v1/deployments/d0/levels/0/polyline",
		"/v1/deployments/d0/levels/1/polyline",
		"/v1/deployments/d0/classify?x=17.3&y=24.9",
		"/v1/deployments/d0/range?x0=5&y0=5&x1=45&y1=45&rows=6&cols=6",
		"/v1/deployments/d0/raster?rows=24&cols=24",
		"/v1/deployments/d0/raster?rows=16&cols=16&format=pgm",
	} {
		ca, ea, ba := fetch(t, a, path)
		cb, eb, bb := fetch(t, b, path)
		if ca != cb || ca != http.StatusOK {
			t.Fatalf("%s: GET %s status %d vs %d", when, path, ca, cb)
		}
		if ea != eb {
			t.Fatalf("%s: GET %s ETag %q vs %q", when, path, ea, eb)
		}
		if string(ba) != string(bb) {
			t.Fatalf("%s: GET %s bodies diverge (%d vs %d bytes)", when, path, len(ba), len(bb))
		}
	}
}

// TestCheckpointRestoreEquivalence is the kill-and-restart acceptance
// test: a server restored from -checkpoint-dir serves snapshots
// byte-identical (ETag, polylines, raster JSON and PGM bytes,
// classifications) to a never-restarted same-seed run, at the restore
// point and at every subsequent round — crash-faulted rounds included.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Deployments: 1, Nodes: 300, Seed: 21, FaultEvery: 3, Oracle: true, OracleRes: 32,
		CheckpointDir: dir, CheckpointEvery: 2}

	// The continuous run: 4 rounds, checkpoints at v2 and v4.
	_, tsA := bootServer(t, cfg)
	for i := 0; i < 4; i++ {
		postRound(t, tsA, "d0")
	}
	if _, err := os.Stat(filepath.Join(dir, "d0.json")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// The "restarted process": a fresh server over the same dir.
	restoresBefore := counter("restores")
	b, tsB := bootServer(t, cfg)
	if counter("restores") != restoresBefore+1 {
		t.Fatal("restart did not restore from the checkpoint")
	}
	if v := b.deps["d0"].version; v != 4 {
		t.Fatalf("restored at version %d, want 4", v)
	}
	if r := b.deps["d0"].src.Round(); r != 4 {
		t.Fatalf("restored round source at %d, want 4", r)
	}
	compareServing(t, tsA, tsB, "at restore")

	// Both advance through three more rounds (round 6 is crash-faulted);
	// every subsequent snapshot must stay byte-identical.
	for i := 0; i < 3; i++ {
		ra := postRound(t, tsA, "d0")
		rb := postRound(t, tsB, "d0")
		if ra["etag"] != rb["etag"] || ra["faulted"] != rb["faulted"] || ra["reports"] != rb["reports"] {
			t.Fatalf("round %d diverged after restore: %v vs %v", i+5, ra, rb)
		}
		compareServing(t, tsA, tsB, ra["etag"].(string))
	}
}

// TestRestoreIdentityMismatch: a checkpoint from a differently shaped
// deployment (seed, node count, fault cadence) must refuse to boot —
// silently serving another universe's data is the one non-recoverable
// configuration error.
func TestRestoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Deployments: 1, Nodes: 250, Seed: 51, CheckpointDir: dir}
	_, ts := bootServer(t, cfg)
	postRound(t, ts, "d0")

	bad := cfg
	bad.Seed = 52
	if _, err := NewServer(bad); err == nil {
		t.Fatal("mismatched seed restored without error")
	}
	bad = cfg
	bad.Nodes = 260
	if _, err := NewServer(bad); err == nil {
		t.Fatal("mismatched node count restored without error")
	}
}

// TestRestoreCorruptCheckpoint: an unreadable checkpoint is logged and
// ignored — the server self-heals by starting that deployment cold
// instead of refusing to boot.
func TestRestoreCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d0.json"), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	errsBefore := counter("restore_errors")
	logged := false
	s, err := NewServer(Config{Deployments: 1, Nodes: 250, Seed: 53, CheckpointDir: dir,
		Logf: func(string, ...any) { logged = true }})
	if err != nil {
		t.Fatalf("corrupt checkpoint failed the boot: %v", err)
	}
	if counter("restore_errors") != errsBefore+1 {
		t.Fatal("restore_errors did not grow")
	}
	if !logged {
		t.Fatal("corrupt checkpoint was not logged")
	}
	if s.deps["d0"].snap.Load() != nil || s.deps["d0"].version != 0 {
		t.Fatal("corrupt checkpoint still produced a snapshot")
	}
}

// TestRestoreSlotOrderCheckpoint restores testdata/slotorder/d0.json, a
// checkpoint written by an engine that kept each report in a slot earlier
// rounds had assigned it, so its arranged order differs from the arrival
// order of the round it holds (a pushed, shuffled round at version 2).
// Restoring must republish that version and its ETag, keep that order as
// the snapshot's reports, and serve the map Reconstruct builds over it.
func TestRestoreSlotOrderCheckpoint(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "slotorder", "d0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d0.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := bootServer(t, Config{Deployments: 1, Nodes: doc.Nodes, Seed: doc.Seed, CheckpointDir: dir})
	d := s.deps["d0"]
	sn := d.snap.Load()
	if sn == nil || sn.version != 2 || d.version != 2 {
		t.Fatalf("restored version: snapshot %v, deployment %d; want 2", sn, d.version)
	}
	const etag = `"d0-v2"`
	if sn.etag != etag {
		t.Fatalf("restored ETag %s, want %s", sn.etag, etag)
	}
	if _, resp := getMeta(t, ts, "d0"); resp.Header.Get("ETag") != etag {
		t.Fatalf("meta served ETag %q, want %s", resp.Header.Get("ETag"), etag)
	}
	if !reflect.DeepEqual(sn.input, doc.Arranged) {
		t.Fatal("restored snapshot's reports differ from the checkpoint's order")
	}
	full := contour.Reconstruct(doc.Arranged, d.levels, d.bounds, doc.SinkValue, d.opts)
	if err := contour.Equivalent(sn.m, full, 64, 64); err != nil {
		t.Fatalf("restored map: %v", err)
	}
}
