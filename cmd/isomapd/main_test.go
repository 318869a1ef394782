package main

import (
	"net/http"
	"testing"
)

// TestStartPprof: the profiling surface answers on its own listener, stop
// closes that listener, and an unusable address fails at listen time.
func TestStartPprof(t *testing.T) {
	base, stop, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stop()
		t.Fatalf("GET /debug/pprof/: status %d, want 200", resp.StatusCode)
	}

	stop()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if resp, err := client.Get(base + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Fatalf("pprof still answering after stop: status %d", resp.StatusCode)
	}

	if _, _, err := startPprof("127.0.0.1:-1"); err == nil {
		t.Fatal("startPprof accepted an invalid port")
	}
}
