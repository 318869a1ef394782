package serve

import (
	"math"
	"time"
)

// ChaosPlan is the serving layer's seeded fault schedule — the
// counterpart of internal/faults.Plan for the ingest path instead of the
// radio. Every decision is a pure splitmix64 hash of (Seed, deployment
// id, ingest attempt number, fault kind): no state advances, so the
// schedule is identical across processes, goroutine interleavings and
// replays, and a test can enumerate exactly which attempts will fire
// before driving them. A nil plan injects nothing; every method is
// nil-receiver-safe so the ingest path needs no branches.
//
// The injected kinds map one-to-one onto the failure domains the
// resilience layer must absorb: Panic (ingest panics after the build →
// 503, nothing published), Diverge (synthetic oracle divergence, handled
// identically to a real one) and SlowDelay (slow reconstruction rounds →
// supervisor pacing and query staleness).
type ChaosPlan struct {
	cfg ChaosConfig
}

// ChaosConfig parameterizes NewChaosPlan. Rates are per ingest attempt,
// in [0, 1].
type ChaosConfig struct {
	// Seed drives the whole schedule.
	Seed int64
	// PanicRate is the probability an ingest attempt panics after the
	// round's map is built (the harshest point: a finished map that must
	// not be published).
	PanicRate float64
	// DivergeRate is the probability an attempt reports a synthetic
	// oracle divergence.
	DivergeRate float64
	// SlowRate is the probability an attempt sleeps SlowDelay first.
	SlowRate float64
	// SlowDelay is the injected reconstruction delay; zero selects 5ms.
	SlowDelay time.Duration
}

// NewChaosPlan validates rates into [0,1] by clamping and applies
// defaults.
func NewChaosPlan(cfg ChaosConfig) *ChaosPlan {
	clamp := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
	cfg.PanicRate = clamp(cfg.PanicRate)
	cfg.DivergeRate = clamp(cfg.DivergeRate)
	cfg.SlowRate = clamp(cfg.SlowRate)
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 5 * time.Millisecond
	}
	return &ChaosPlan{cfg: cfg}
}

// Chaos kind salts; distinct streams per fault kind.
const (
	chaosKindPanic uint64 = iota + 1
	chaosKindDiverge
	chaosKindSlow
)

// draw returns the deterministic uniform [0,1) draw of one (deployment,
// attempt, kind) cell.
func (p *ChaosPlan) draw(dep string, attempt int, kind uint64) float64 {
	salt := kind
	for _, c := range dep {
		salt = salt*131 + uint64(c)
	}
	salt = salt*1000003 + uint64(uint32(attempt))
	z := uint64(p.cfg.Seed) ^ salt ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Panic reports whether the attempt is scheduled to panic mid-ingest.
func (p *ChaosPlan) Panic(dep string, attempt int) bool {
	return p != nil && p.cfg.PanicRate > 0 && p.draw(dep, attempt, chaosKindPanic) < p.cfg.PanicRate
}

// Diverge reports whether the attempt is scheduled to fail its oracle
// check synthetically.
func (p *ChaosPlan) Diverge(dep string, attempt int) bool {
	return p != nil && p.cfg.DivergeRate > 0 && p.draw(dep, attempt, chaosKindDiverge) < p.cfg.DivergeRate
}

// SlowDelay returns the injected reconstruction delay of the attempt
// (zero when none is scheduled).
func (p *ChaosPlan) SlowDelay(dep string, attempt int) time.Duration {
	if p == nil || p.cfg.SlowRate <= 0 || p.draw(dep, attempt, chaosKindSlow) >= p.cfg.SlowRate {
		return 0
	}
	return p.cfg.SlowDelay
}
