package serve

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// SupervisorConfig parameterizes Start.
type SupervisorConfig struct {
	// Interval paces successful rounds; zero selects 5s.
	Interval time.Duration
	// BackoffBase is the delay after the first failure; zero selects
	// min(Interval, 250ms). Each further consecutive failure doubles it.
	BackoffBase time.Duration
	// BackoffMax caps the backoff; zero selects 16 * BackoffBase.
	BackoffMax time.Duration
	// BreakerAfter consecutive failures trips the crash-loop breaker:
	// the deployment is flagged crash-looping (failing /readyz) and the
	// loop retries only at BackoffMax until a round succeeds. Zero
	// selects 5.
	BreakerAfter int
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = min(c.Interval, 250*time.Millisecond)
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 16 * c.BackoffBase
	}
	if c.BreakerAfter <= 0 {
		c.BreakerAfter = 5
	}
	return c
}

// supervisor owns the per-deployment background ingest loops.
type supervisor struct {
	cfg    SupervisorConfig
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start launches one supervised ingest loop per deployment: each loop
// advances its deployment every Interval, converts failures into bounded
// exponential backoff with jitter (so a flapping deployment cannot
// hot-loop the round source), and trips a crash-loop breaker — visible
// in /readyz and the meta document — after BreakerAfter consecutive
// failures. A success resets backoff and breaker. Start is idempotent;
// Stop halts the loops.
func (s *Server) Start(cfg SupervisorConfig) {
	if s.sup != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	sup := &supervisor{cfg: cfg.withDefaults(), cancel: cancel}
	s.sup = sup
	for i, id := range s.ids {
		d := s.deps[id]
		// Jitter draws from a per-deployment seeded stream: decorrelates
		// the deployments' retry phases without global randomness.
		rng := rand.New(rand.NewSource(s.cfg.Seed + int64(i)*7919))
		sup.wg.Add(1)
		go func() {
			defer sup.wg.Done()
			s.superviseLoop(ctx, d, sup.cfg, rng)
		}()
	}
}

// Stop halts the supervisor loops and waits for them to drain. Safe to
// call without a prior Start.
func (s *Server) Stop() {
	if s.sup == nil {
		return
	}
	s.sup.cancel()
	s.sup.wg.Wait()
	s.sup = nil
}

func (s *Server) superviseLoop(ctx context.Context, d *deployment, cfg SupervisorConfig, rng *rand.Rand) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		_, err := s.advance(d)
		delay := cfg.Interval
		if err != nil {
			fails := d.health.Load().ConsecFails
			delay = backoffDelay(cfg, fails, rng)
			if fails >= cfg.BreakerAfter {
				d.mu.Lock()
				h := *d.health.Load()
				if !h.CrashLooping {
					h.CrashLooping = true
					d.health.Store(&h)
					serveVars().Add("breaker_trips", 1)
					s.logf("serve: %s crash-looping after %d consecutive failures: %v", d.id, fails, err)
				}
				d.mu.Unlock()
			} else {
				s.logf("serve: %s round failed (attempt %d, retrying in %v): %v", d.id, fails, delay, err)
			}
		}
		timer.Reset(delay)
	}
}

// backoffDelay is the bounded exponential backoff with ±20% jitter:
// base*2^(fails-1) capped at max. Once the breaker threshold is passed
// the delay pins to the cap — the breaker does not stop retrying, it
// stops retrying *fast* (and flips readiness) until a success resets it.
func backoffDelay(cfg SupervisorConfig, fails int, rng *rand.Rand) time.Duration {
	if fails < 1 {
		fails = 1
	}
	d := cfg.BackoffBase
	for i := 1; i < fails && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	jitter := 1 + 0.2*(2*rng.Float64()-1)
	d = time.Duration(float64(d) * jitter)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
