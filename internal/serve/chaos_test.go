package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosPlanDeterminism: the schedule is a pure function of (seed,
// deployment, attempt) — two plans agree everywhere, and rates behave.
func TestChaosPlanDeterminism(t *testing.T) {
	a := NewChaosPlan(ChaosConfig{Seed: 5, PanicRate: 0.2, DivergeRate: 0.3, SlowRate: 0.1})
	b := NewChaosPlan(ChaosConfig{Seed: 5, PanicRate: 0.2, DivergeRate: 0.3, SlowRate: 0.1})
	fired := map[string]int{}
	for attempt := 1; attempt <= 400; attempt++ {
		for _, dep := range []string{"d0", "d1"} {
			if a.Panic(dep, attempt) != b.Panic(dep, attempt) ||
				a.Diverge(dep, attempt) != b.Diverge(dep, attempt) ||
				a.SlowDelay(dep, attempt) != b.SlowDelay(dep, attempt) {
				t.Fatalf("plans diverged at (%s, %d)", dep, attempt)
			}
			if a.Panic(dep, attempt) {
				fired["panic"]++
			}
			if a.Diverge(dep, attempt) {
				fired["diverge"]++
			}
			if a.SlowDelay(dep, attempt) > 0 {
				fired["slow"]++
			}
		}
	}
	for kind, n := range fired {
		if n == 0 {
			t.Fatalf("kind %s never fired in 800 cells", kind)
		}
	}
	// Independence across deployments: d0 and d1 schedules differ.
	same := true
	for attempt := 1; attempt <= 100; attempt++ {
		if a.Panic("d0", attempt) != a.Panic("d1", attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("d0 and d1 share a panic schedule")
	}
	var nilPlan *ChaosPlan
	if nilPlan.Panic("d0", 1) || nilPlan.Diverge("d0", 1) || nilPlan.SlowDelay("d0", 1) != 0 {
		t.Fatal("nil plan injected")
	}
}

// corruptBody renders a pushed batch as raw JSON with an out-of-range
// coordinate literal — the wire form of a corrupted batch (JSON itself
// cannot spell NaN; 1e999 overflows float64 and must be rejected).
func corruptBody() string {
	return `{"reports":[{"level":6,"levelIndex":0,"pos":{"x":1e999,"y":12},"grad":{"x":1,"y":0},"source":7}],"sinkValue":5}`
}

// TestChaosSoak is the acceptance soak: a supervised server under a
// seeded chaos plan (panics, synthetic divergences, slow rounds) with
// oracle mode on and checkpointing enabled, queried concurrently
// (meaningful under -race). Assertions: the server keeps publishing
// through the chaos; queries during degradation serve the last good
// snapshot with staleness metadata; no response ever pairs a version
// with another version's ETag; corrupted pushed batches bounce with 400
// and advance nothing; and once the chaos lifts, every deployment
// returns to healthy within K rounds and /readyz flips back.
func TestChaosSoak(t *testing.T) {
	plan := NewChaosPlan(ChaosConfig{Seed: 77, PanicRate: 0.12, DivergeRate: 0.15, SlowRate: 0.1, SlowDelay: time.Millisecond})
	s, ts := bootServer(t, Config{
		Deployments: 2, Nodes: 250, Seed: 41, FaultEvery: 4,
		Oracle: true, OracleRes: 32,
		CheckpointDir: t.TempDir(), CheckpointEvery: 3,
		Chaos: plan,
	})
	divBefore := counter("divergences")
	panicsBefore := counter("panics_recovered")
	ckBefore := counter("checkpoints")

	s.Start(SupervisorConfig{Interval: time.Millisecond, BackoffBase: time.Millisecond,
		BackoffMax: 4 * time.Millisecond, BreakerAfter: 4})
	defer s.Stop()

	// Concurrent query load across both deployments for the whole soak.
	etagRe := regexp.MustCompile(`^"(d\d+)-v(\d+)"$`)
	// One ETag, one body: every response under a given ETag must be
	// byte-identical for the soak's lifetime, whether it was served from
	// the artifact cache, re-rendered after an eviction, or rendered from
	// the snapshot map while the deployment sat degraded. This is the
	// cache-key half of the desync invariant.
	var etagBodies sync.Map // etag string -> body string
	var stop atomic.Bool
	var sawStale atomic.Bool
	var wg sync.WaitGroup
	queryErr := make(chan error, 16)
	reportErr := func(format string, args ...any) {
		select {
		case queryErr <- fmt.Errorf(format, args...):
		default:
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dep := fmt.Sprintf("d%d", w%2)
			for !stop.Load() {
				// Raster: the response version must match the ETag — the
				// desync invariant, probed across failed and recovering rounds.
				resp, err := http.Get(ts.URL + "/v1/deployments/" + dep + "/raster?rows=8&cols=8")
				if err != nil {
					reportErr("raster: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var out struct {
						Version int `json:"version"`
					}
					if err := json.Unmarshal(body, &out); err != nil {
						reportErr("raster body: %v", err)
						return
					}
					mm := etagRe.FindStringSubmatch(resp.Header.Get("ETag"))
					if mm == nil {
						reportErr("raster ETag %q unparseable", resp.Header.Get("ETag"))
						return
					}
					if v, _ := strconv.Atoi(mm[2]); v != out.Version {
						reportErr("DESYNC: raster version %d under ETag %s", out.Version, resp.Header.Get("ETag"))
						return
					}
					if prev, loaded := etagBodies.LoadOrStore(resp.Header.Get("ETag"), string(body)); loaded && prev.(string) != string(body) {
						reportErr("DESYNC: ETag %s served two different bodies", resp.Header.Get("ETag"))
						return
					}
					if resp.Header.Get("Warning") != "" {
						sawStale.Store(true)
						if resp.Header.Get("X-Stale-Rounds") == "" {
							reportErr("Warning without X-Stale-Rounds")
							return
						}
					}
				case http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Superseded, shed, or pre-first-round: legitimate.
				default:
					reportErr("raster status %d: %s", resp.StatusCode, body)
					return
				}
				// Corrupted pushed batches must bounce without advancing.
				if w == 0 {
					resp, err := http.Post(ts.URL+"/v1/deployments/"+dep+"/rounds", "application/json",
						strings.NewReader(corruptBody()))
					if err != nil {
						reportErr("corrupt post: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						reportErr("corrupt batch: status %d, want 400", resp.StatusCode)
						return
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	// Soak until every chaos kind has fired and both deployments have
	// published a healthy number of rounds.
	waitFor(t, 60*time.Second, "chaos kinds + progress", func() bool {
		select {
		case err := <-queryErr:
			t.Fatal(err)
		default:
		}
		if counter("divergences") <= divBefore || counter("panics_recovered") <= panicsBefore ||
			counter("checkpoints") <= ckBefore {
			return false
		}
		for _, id := range []string{"d0", "d1"} {
			if s.deps[id].snap.Load() == nil || s.deps[id].snap.Load().version < 12 {
				return false
			}
		}
		return true
	})

	// Lift the chaos: every deployment must return to healthy within K
	// published rounds, and readiness must flip back.
	const K = 5
	s.SetChaos(nil)
	versionAt := map[string]int{}
	for _, id := range []string{"d0", "d1"} {
		versionAt[id] = s.deps[id].snap.Load().version
	}
	waitFor(t, 30*time.Second, "post-chaos recovery", func() bool {
		for _, id := range []string{"d0", "d1"} {
			h := s.deps[id].health.Load()
			if h.StaleRounds > 0 || h.CrashLooping {
				if s.deps[id].snap.Load().version > versionAt[id]+K {
					t.Fatalf("%s still %+v after %d rounds past chaos", id, h, K)
				}
				return false
			}
		}
		// The operator's view agrees: the list endpoint reports every
		// deployment healthy before readiness is checked.
		var list struct {
			Deployments []struct {
				State string `json:"state"`
			} `json:"deployments"`
		}
		getJSON(t, ts, "/v1/deployments", &list)
		for _, d := range list.Deployments {
			if d.State != "healthy" {
				return false
			}
		}
		resp := getJSON(t, ts, "/readyz", nil)
		return len(list.Deployments) == 2 && resp.StatusCode == http.StatusOK
	})
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-queryErr:
		t.Fatal(err)
	default:
	}
	if !sawStale.Load() {
		t.Log("note: no query observed a degraded window (timing-dependent; staleness is separately pinned by TestDivergedRoundKeepsLastSnapshot)")
	}
}
