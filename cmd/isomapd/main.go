// Command isomapd is the long-lived contour-map server: it owns N
// concurrent simulated deployments, advances each through churn rounds
// (silting field, optional periodic fault injection) and serves contour
// queries — level-set polylines, point and range classification, raster
// tiles — from versioned snapshots with strong ETags. Reconstruction is
// incremental (internal/contour.Incremental); -oracle cross-checks every
// update against a from-scratch rebuild before publishing it.
//
// Usage:
//
//	isomapd [-addr :8080] [-deployments 2] [-nodes 600] [-seed 1]
//	        [-faultevery 0] [-oracle] [-interval 0]
//	        [-field KIND] [-field-speed 1] [-delta] [-delta-expiry 0]
//	        [-shards 0] [-workers 0] [-cache-entries 0]
//	        [-checkpoint-dir DIR] [-checkpoint-every N]
//	        [-pprof ADDR]
//
// -interval N hands each deployment to a supervised ingest loop that
// advances one round every N (with exponential backoff after failures
// and a crash-loop breaker); 0 leaves advancement to
// POST /v1/deployments/{id}/rounds. -checkpoint-dir enables periodic
// per-deployment checkpoints; a restarted isomapd resumes from them
// byte-identical to a never-restarted run. -shards partitions each
// deployment's round simulation into independently clocked shards and
// -workers bounds both the shard executor and the incremental engine's
// worker pools (0 picks GOMAXPROCS); output is byte-identical at any
// width. -cache-entries bounds the per-deployment response artifact
// cache. -pprof ADDR serves net/http/pprof on a separate listener (off
// by default; never exposed on the main address).
//
// -field selects the evolving field the deployments monitor (one of
// field.TemporalKinds: silting, drift, front, step) and -field-speed its
// evolution rate. -delta switches every round onto the packet engine's
// delta-report protocol — nodes transmit only level-crossing deltas and
// the server ingests the sink's aged merged belief — with -delta-expiry
// bounding belief staleness in rounds (0 keeps entries forever).
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"time"

	"isomap/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		deployments = flag.Int("deployments", 2, "number of concurrent deployments")
		nodes       = flag.Int("nodes", 600, "nodes per deployment")
		seed        = flag.Int64("seed", 1, "base deployment seed (deployment i uses seed+i)")
		faultEvery  = flag.Int("faultevery", 0, "inject faults every Nth round (0 = never)")
		fieldKind   = flag.String("field", "", "evolving field kind: silting, drift, front or step (empty = default silting)")
		fieldSpeed  = flag.Float64("field-speed", 0, "evolving field speed factor (0 = 1)")
		delta       = flag.Bool("delta", false, "run rounds on the delta-report protocol (level-crossing deltas + aged sink belief)")
		deltaExpiry = flag.Int("delta-expiry", 0, "delta sink belief expiry in rounds (0 = never expire)")
		oracle      = flag.Bool("oracle", false, "verify every incremental update against a full rebuild")
		interval    = flag.Duration("interval", 0, "supervised auto-advance period (0 = only on POST)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for per-deployment checkpoints (empty = no checkpoints)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "checkpoint every Nth published version")
		shards      = flag.Int("shards", 0, "round-simulation shards per deployment (0 = unsharded)")
		workers     = flag.Int("workers", 0, "ingest worker width: shard executor + incremental engine pools (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache-entries", 0, "response artifact cache entries per deployment (0 = default)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		base, _, err := startPprof(*pprofAddr)
		if err != nil {
			log.Fatalf("isomapd: pprof listener: %v", err)
		}
		log.Printf("isomapd: pprof on %s/debug/pprof/", base)
	}

	srv, err := serve.NewServer(serve.Config{
		Deployments:     *deployments,
		Nodes:           *nodes,
		Seed:            *seed,
		FaultEvery:      *faultEvery,
		TemporalField:   *fieldKind,
		FieldSpeed:      *fieldSpeed,
		Delta:           *delta,
		DeltaExpiry:     *deltaExpiry,
		Oracle:          *oracle,
		Shards:          *shards,
		Workers:         *workers,
		CacheEntries:    *cacheSize,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatalf("isomapd: %v", err)
	}
	if *interval > 0 {
		srv.Start(serve.SupervisorConfig{Interval: *interval})
	}
	log.Printf("isomapd: %d deployments of %d nodes on %s", *deployments, *nodes, *addr)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Slow-client protection: a stalled header read, request body or
		// response drain must not pin a connection goroutine forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	log.Fatal(hs.ListenAndServe())
}

// startPprof serves the process profiling surface (net/http/pprof on the
// default mux) on its own listener, keeping it off the query address: the
// main server handles requests with its own mux, so /debug/pprof/ is
// only reachable through this explicitly opted-in port.
func startPprof(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		hs.Close()
		ln.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}
