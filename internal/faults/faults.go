// Package faults is the deterministic fault-injection subsystem: a seeded
// Plan composes per-link channel loss models (Bernoulli and bursty
// Gilbert–Elliott), a mid-round node-crash schedule, and sink-side report
// corruption/duplication. The paper assumes a perfect link layer
// "through performance based routing dynamics and MAC layer
// retransmissions" (Sec. 5); a Plan is the machinery to revoke that
// assumption reproducibly and measure what it costs.
//
// Every draw a Plan makes comes from a stream derived purely from
// (Config.Seed, consumer identity): each directed link runs its own
// SplitMix64 counter stream seeded by hashing (seed, link), so its k-th
// draw is a pure function of (seed, link, k); the crash schedule is
// materialized at construction, and the sink mangler has its own stream.
// Two Plans built from the same Config therefore behave identically
// regardless of process, goroutine interleaving or worker-pool width — a
// simulation replays bit for bit. The link streams live in a dense
// table over one network's adjacency (Plan.Links), one entry per
// directed link, read by index with no map and no lock.
//
// A Plan's channel state advances as the simulation consumes it, so build
// one Plan per simulated round; the zero value injects nothing and is
// safe to share.
package faults

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/network"
)

// ChannelKind selects the per-link loss process.
type ChannelKind int

const (
	// ChannelPerfect is the paper's assumption: no channel loss.
	ChannelPerfect ChannelKind = iota
	// ChannelBernoulli loses each reception independently with
	// probability LossRate.
	ChannelBernoulli
	// ChannelGilbertElliott is the classic two-state burst-loss chain:
	// receptions are lost while the link sits in its bad state. The chain
	// is parameterized so the stationary loss probability is LossRate and
	// Burstiness is the lag-one state correlation — at Burstiness 0 the
	// state is redrawn independently every reception and the process is
	// exactly Bernoulli(LossRate).
	ChannelGilbertElliott
)

// Config describes a reproducible fault plan.
type Config struct {
	// Seed drives every stream of the plan.
	Seed int64
	// Channel selects the per-link loss model.
	Channel ChannelKind
	// LossRate is the stationary per-reception loss probability, in [0, 1).
	LossRate float64
	// Burstiness, in [0, 1), is the Gilbert–Elliott state persistence:
	// the chain leaves its current state with probability scaled by
	// (1 - Burstiness), so expected bad-state sojourns (loss bursts)
	// stretch by 1/(1-Burstiness). Ignored by the other channel kinds.
	Burstiness float64
	// CrashFraction of the nodes die mid-round, at times drawn uniformly
	// in [CrashStart, CrashEnd] (seconds of simulated time).
	CrashFraction        float64
	CrashStart, CrashEnd float64
	// Protect lists nodes the crash schedule must never pick (the sink).
	Protect []network.NodeID
	// CorruptRate is the probability a report delivered to the sink is
	// corrupted in place: its isoposition is replaced by a uniform point
	// of the field and its gradient re-rotated, modeling payload damage
	// that slipped past the frame check.
	CorruptRate float64
	// DuplicateRate is the probability a delivered report is duplicated
	// at the sink, modeling transport-layer replays.
	DuplicateRate float64
}

// Crash is one scheduled node death.
type Crash struct {
	Node network.NodeID
	Time float64
}

// linkState is the channel state of one directed link: a SplitMix64
// counter (the stream position) and the Gilbert–Elliott chain state. A
// round touches tens of thousands of links a few times each, so the
// states sit inline in the Links table, 16 bytes each.
type linkState struct {
	ctr uint64
	bad bool
}

// next returns the link's next uniform [0, 1) draw: one SplitMix64 step.
func (st *linkState) next() float64 {
	st.ctr += 0x9e3779b97f4a7c15
	z := st.ctr
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Plan is a materialized fault plan. The zero value injects no faults.
type Plan struct {
	cfg     Config
	crashes []Crash
	// links is the channel table over linksNet, built by the first Links
	// call, so streams advance across every round that draws from the
	// plan.
	links    *Links
	linksNet *network.Network
	sink     *rand.Rand
}

// New validates the config and materializes the plan (including the crash
// schedule over a network of n nodes).
func New(cfg Config, n int) (*Plan, error) {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("faults: loss rate %g outside [0, 1)", cfg.LossRate)
	}
	if cfg.Burstiness < 0 || cfg.Burstiness >= 1 {
		return nil, fmt.Errorf("faults: burstiness %g outside [0, 1)", cfg.Burstiness)
	}
	if cfg.CrashFraction < 0 || cfg.CrashFraction > 1 {
		return nil, fmt.Errorf("faults: crash fraction %g outside [0, 1]", cfg.CrashFraction)
	}
	if cfg.CrashEnd < cfg.CrashStart {
		return nil, fmt.Errorf("faults: crash window [%g, %g] inverted", cfg.CrashStart, cfg.CrashEnd)
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate > 1 || cfg.DuplicateRate < 0 || cfg.DuplicateRate > 1 {
		return nil, fmt.Errorf("faults: sink rates (%g, %g) outside [0, 1]", cfg.CorruptRate, cfg.DuplicateRate)
	}
	p := &Plan{cfg: cfg}
	if cfg.CrashFraction > 0 && n > 0 {
		p.crashes = crashSchedule(cfg, n)
	}
	return p, nil
}

// crashSchedule picks round(fraction*n) unprotected nodes and a uniform
// crash time per node, sorted by (time, node).
func crashSchedule(cfg Config, n int) []Crash {
	protected := make(map[network.NodeID]bool, len(cfg.Protect))
	for _, id := range cfg.Protect {
		protected[id] = true
	}
	target := int(math.Round(cfg.CrashFraction * float64(n)))
	rng := rand.New(rand.NewSource(mix(uint64(cfg.Seed), 0x6372617368)))
	var crashes []Crash
	for _, i := range rng.Perm(n) {
		if len(crashes) >= target {
			break
		}
		if protected[network.NodeID(i)] {
			continue
		}
		t := cfg.CrashStart + rng.Float64()*(cfg.CrashEnd-cfg.CrashStart)
		crashes = append(crashes, Crash{Node: network.NodeID(i), Time: t})
	}
	sort.Slice(crashes, func(a, b int) bool {
		if crashes[a].Time != crashes[b].Time {
			return crashes[a].Time < crashes[b].Time
		}
		return crashes[a].Node < crashes[b].Node
	})
	return crashes
}

// Empty reports whether the plan injects nothing, so consumers can skip
// installing hooks entirely and stay on the exact fault-free code path.
func (p *Plan) Empty() bool {
	return p == nil || (!p.HasChannel() && len(p.crashes) == 0 &&
		p.cfg.CorruptRate == 0 && p.cfg.DuplicateRate == 0)
}

// HasChannel reports whether the plan carries a lossy channel model.
func (p *Plan) HasChannel() bool {
	return p != nil && p.cfg.Channel != ChannelPerfect && p.cfg.LossRate > 0
}

// Crashes returns the crash schedule, sorted by time.
func (p *Plan) Crashes() []Crash {
	if p == nil {
		return nil
	}
	return p.crashes
}

// Links is a plan's channel over one network: the stream state of every
// directed link, in adjacency order — node from's out-links are entries
// start[from] through start[from+1]-1, in the order of
// nw.Neighbors(from). A reception draws its link by (sender, neighbour
// index), so the table needs no map and no lock: sharded rounds draw
// each directed link only from the receiver's shard, and distinct links
// are distinct entries.
type Links struct {
	kind                 ChannelKind
	lossRate, burstiness float64
	start                []int32
	st                   []linkState
}

// Links returns the plan's channel table over nw, or nil when the plan
// has no lossy channel. Every link's stream is seeded (and a
// Gilbert–Elliott link's start state drawn) when the table is built,
// exactly as it would be on the link's first draw. Calls with the same
// network return the same table, so its streams continue where the last
// round left them; a plan draws over one network.
func (p *Plan) Links(nw *network.Network) *Links {
	if !p.HasChannel() {
		return nil
	}
	if p.links != nil && p.linksNet == nw {
		return p.links
	}
	n := nw.Len()
	l := &Links{kind: p.cfg.Channel, lossRate: p.cfg.LossRate, burstiness: p.cfg.Burstiness, start: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		l.start[i+1] = l.start[i] + int32(len(nw.Neighbors(network.NodeID(i))))
	}
	l.st = make([]linkState, l.start[n])
	for i := 0; i < n; i++ {
		from := network.NodeID(i)
		for j, to := range nw.Neighbors(from) {
			l.st[int(l.start[i])+j] = p.newLink(from, to)
		}
	}
	p.links, p.linksNet = l, nw
	return l
}

// Lose draws the channel for one reception on the directed link from
// from to its j-th neighbour, returning true when the frame is erased.
// Each link evolves its own counter stream, so the draw sequence depends
// only on the order of receptions on that link. It allocates nothing.
func (l *Links) Lose(from network.NodeID, j int) bool {
	st := &l.st[int(l.start[from])+j]
	switch l.kind {
	case ChannelBernoulli:
		return st.next() < l.lossRate
	case ChannelGilbertElliott:
		lost := st.bad
		// Leave-state probabilities scaled by (1 - burstiness): at
		// burstiness 0 the next state is stationary-independent of the
		// current one, i.e. Bernoulli(LossRate).
		if st.bad {
			if st.next() < (1-l.lossRate)*(1-l.burstiness) {
				st.bad = false
			}
		} else {
			if st.next() < l.lossRate*(1-l.burstiness) {
				st.bad = true
			}
		}
		return lost
	}
	return false
}

// newLink seeds the stream of the directed link from->to; a
// Gilbert–Elliott link's start state is drawn from the stationary
// distribution.
func (p *Plan) newLink(from, to network.NodeID) linkState {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	st := linkState{ctr: uint64(mix(uint64(p.cfg.Seed), key))}
	if p.cfg.Channel == ChannelGilbertElliott {
		st.bad = st.next() < p.cfg.LossRate
	}
	return st
}

// MangleSinkReports applies the sink-side corruption and duplication model
// to the round's delivered reports, in order. With both rates zero the
// input slice is returned untouched. bounds is the field rectangle the
// corrupted isopositions are drawn from.
func (p *Plan) MangleSinkReports(reports []core.Report, bounds geom.Polygon) []core.Report {
	if p == nil || (p.cfg.CorruptRate == 0 && p.cfg.DuplicateRate == 0) || len(reports) == 0 {
		return reports
	}
	if p.sink == nil {
		p.sink = rand.New(rand.NewSource(mix(uint64(p.cfg.Seed), 0x73696e6b)))
	}
	x0, y0, x1, y1 := bounds.BoundingBox()
	out := make([]core.Report, 0, len(reports))
	for _, r := range reports {
		if p.cfg.CorruptRate > 0 && p.sink.Float64() < p.cfg.CorruptRate {
			r.Pos = geom.Point{
				X: x0 + p.sink.Float64()*(x1-x0),
				Y: y0 + p.sink.Float64()*(y1-y0),
			}
			theta := p.sink.Float64() * 2 * math.Pi
			r.Grad = geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)}
		}
		out = append(out, r)
		if p.cfg.DuplicateRate > 0 && p.sink.Float64() < p.cfg.DuplicateRate {
			out = append(out, r)
		}
	}
	return out
}

// Signature serializes everything that determines the plan's behavior —
// the config, the materialized crash schedule and the per-link stream
// seeds are all pure functions of it — without consuming any stream
// state. Plans built from equal configs have byte-identical signatures.
func (p *Plan) Signature() []byte {
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	if p == nil {
		return []byte{0}
	}
	put(uint64(p.cfg.Seed))
	put(uint64(p.cfg.Channel))
	putF(p.cfg.LossRate)
	putF(p.cfg.Burstiness)
	putF(p.cfg.CrashFraction)
	putF(p.cfg.CrashStart)
	putF(p.cfg.CrashEnd)
	putF(p.cfg.CorruptRate)
	putF(p.cfg.DuplicateRate)
	for _, id := range p.cfg.Protect {
		put(uint64(uint32(id)))
	}
	for _, c := range p.crashes {
		put(uint64(uint32(c.Node)))
		putF(c.Time)
	}
	return b
}

// mix is splitmix64 over the xor of seed and salt: cheap, well-spread
// stream separation for the per-consumer RNGs.
func mix(seed, salt uint64) int64 {
	z := seed ^ salt ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}
