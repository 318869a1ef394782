package sim

import (
	"fmt"

	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/monitor"
	"isomap/internal/network"
)

// RoundSource drives one deployment through successive monitoring rounds
// over a time-varying field: each Next() advances time by Dt, senses the
// field snapshot into the network, runs one protocol round and returns
// the sink's view of it. It is the report feed behind a long-lived
// contour server (cmd/isomapd) and the churn generator of the serve
// benchmark.
//
// Rounds are deterministic given (Env seed, Dt, mode and fault knobs):
// normal rounds run the analytic core protocol (or the packet engine
// when PacketRounds or Delta is set), and every FaultEvery-th round runs
// under a fresh fault plan seeded by the round number, so replays
// reproduce byte-identical report streams. A RoundSource is not safe for
// concurrent use.
type RoundSource struct {
	// Env is the deployment the rounds run on; its network is mutated
	// (sensing) by every round, so an Env must not back two sources.
	Env *Env
	// Dyn is the evolving field; nil selects DefaultSilting over the
	// Env's field.
	Dyn field.DynamicField
	// Dt is the time advanced per round; zero selects 0.5.
	Dt float64
	// FaultEvery, when positive, runs every FaultEvery-th round (1-based)
	// under fault injection: lossy channel plus mid-round crashes.
	FaultEvery int
	// FaultLoss is the faulted rounds' uniform loss rate; zero selects
	// 0.05.
	FaultLoss float64
	// FaultCrashFrac is the faulted rounds' crashing node fraction; zero
	// selects 0.05.
	FaultCrashFrac float64
	// Shards, when above 1, runs the packet-engine rounds on a sharded
	// engine (grid partition, Shards cells) with Workers goroutines per
	// window. The report stream is byte-identical at any shard count —
	// sharding is purely an execution strategy.
	Shards int
	// Workers bounds the sharded engine's parallelism; 0 selects
	// GOMAXPROCS. Ignored when Shards <= 1.
	Workers int
	// PacketRounds runs every round — not just faulted ones — on the
	// discrete-event packet engine in full-report mode. This is the
	// oracle configuration delta mode is compared against: same engine,
	// same radio, everything retransmitted every round.
	PacketRounds bool
	// Delta switches every round onto the packet engine's delta-report
	// protocol: nodes transmit only level-crossing deltas (see
	// desim.DeltaState), the sink maintains an aged belief
	// (monitor.AgedMap), and Reports carries the merged belief instead of
	// one round's deliveries. Fault plans and sharding compose as in full
	// mode.
	Delta bool
	// DeltaGradAngle is the delta mode's gradient-rotation re-report
	// threshold (radians); zero selects desim.DefaultGradAngle.
	DeltaGradAngle float64
	// DeltaExpiry bounds the sink belief's staleness: entries not
	// refreshed within DeltaExpiry rounds are aged out. Zero disables
	// aging.
	DeltaExpiry int

	round int
	delta *desim.DeltaState
	aged  *monitor.AgedMap
}

// Round returns the number of completed rounds: the next Next() call runs
// round Round()+1.
func (rs *RoundSource) Round() int { return rs.round }

// SeekRound positions the source so the next Next() runs round n+1.
//
// Outside delta mode the skipped rounds are not executed: rounds are
// memoryless given the Env — sensing overwrites every node value, crash
// marks are restored after faulted rounds, the dynamic field is a pure
// function of time, and fault plans are freshly seeded per round number —
// so a seeked source emits the exact byte-identical round stream a
// continuously advanced one would from round n+1 on.
//
// Delta mode carries cross-round protocol state (each node's
// transmitted-report memory, the sink's aged belief), so SeekRound
// replays rounds 1..n from a reset state instead. The replay is
// deterministic for the same reasons the rounds are, so a restored
// serving checkpoint still resumes byte-identically — it just costs n
// rounds of simulation.
func (rs *RoundSource) SeekRound(n int) error {
	if n < 0 {
		return fmt.Errorf("sim: SeekRound(%d): negative round", n)
	}
	if !rs.Delta {
		rs.round = n
		return nil
	}
	if rs.delta != nil {
		rs.delta.Reset()
	}
	if rs.aged != nil {
		rs.aged.Reset()
	}
	rs.round = 0
	for rs.round < n {
		if _, err := rs.Next(); err != nil {
			return fmt.Errorf("sim: SeekRound(%d): replaying round %d: %w", n, rs.round+1, err)
		}
	}
	return nil
}

// RoundData is one round's sink-side outcome.
type RoundData struct {
	// Round is the 1-based round number.
	Round int
	// T is the field time the round sensed.
	T float64
	// Reports are the reports the sink reconstructs from: one round's
	// deliveries, or in delta mode the merged aged belief.
	Reports []core.Report
	// SinkValue is the value sensed at the sink node.
	SinkValue float64
	// Faulted marks rounds run under fault injection.
	Faulted bool
	// Crashed is the number of nodes that crashed mid-round (faulted
	// rounds only; crashes are round-scoped and restored afterwards).
	Crashed int
	// DataFrames and TxBytes expose the radio traffic of packet-engine
	// rounds (zero for analytic rounds): first transmissions of data
	// frames, and total transmitted bytes including retries and acks.
	DataFrames int64
	TxBytes    int64
	// Delta carries the delta-mode round telemetry (nil outside delta
	// mode).
	Delta *DeltaRoundStats
}

// DeltaRoundStats is one delta round's protocol telemetry.
type DeltaRoundStats struct {
	// Crossings, Suppressed and Retired are the source-side tally:
	// level-transit reports transmitted, unchanged repeats withheld, and
	// withdrawal records sent.
	Crossings  int
	Suppressed int
	Retired    int
	// Expired counts sink belief entries aged out this round.
	Expired int
	// MapReports is the sink belief size after the round; MeanAgeRounds
	// its mean staleness in rounds.
	MapReports    int
	MeanAgeRounds float64
}

// Next runs one round and returns its sink-side data.
func (rs *RoundSource) Next() (*RoundData, error) {
	if rs.Dyn == nil {
		rs.Dyn = field.DefaultSilting(rs.Env.Field)
	}
	if rs.Dt <= 0 {
		rs.Dt = 0.5
	}
	rs.round++
	t := float64(rs.round) * rs.Dt
	f := rs.Dyn.At(t)
	rd := &RoundData{Round: rs.round, T: t}

	faulted := rs.FaultEvery > 0 && rs.round%rs.FaultEvery == 0
	if faulted || rs.PacketRounds || rs.Delta {
		return rs.nextPacket(f, rd, faulted)
	}

	res, err := core.Run(rs.Env.Tree, f, rs.Env.Query, *rs.Env.Scenario.Filter)
	if err != nil {
		return nil, fmt.Errorf("sim: round %d: %w", rs.round, err)
	}
	rd.Reports = res.Reports
	rd.SinkValue = res.SinkValue
	return rd, nil
}

// roundPlan materializes the round's fault plan and radio config: a
// fresh plan per faulted round (plans are stateful — channel chains,
// crash schedules — and per-round seeding keeps replays exact) on the
// fault sweep's deadline-bounded radio, the default radio otherwise.
func (rs *RoundSource) roundPlan(faulted bool) (*faults.Plan, desim.RadioConfig, error) {
	if !faulted {
		return nil, desim.DefaultRadioConfig(), nil
	}
	loss := rs.FaultLoss
	if loss == 0 {
		loss = 0.05
	}
	crash := rs.FaultCrashFrac
	if crash == 0 {
		crash = 0.05
	}
	plan, err := faults.New(faults.Config{
		Seed:          rs.Env.Scenario.Seed + int64(rs.round),
		Channel:       faults.ChannelBernoulli,
		LossRate:      loss,
		CrashFraction: crash,
		CrashStart:    0.05,
		CrashEnd:      0.6,
		Protect:       []network.NodeID{rs.Env.Tree.Root()},
	}, rs.Env.Network.Len())
	if err != nil {
		return nil, desim.RadioConfig{}, fmt.Errorf("sim: round %d fault plan: %w", rs.round, err)
	}
	return plan, faultRadioConfig(), nil
}

// nextPacket runs one round on the packet engine. In delta mode the
// round runs the delta-report protocol and its deliveries fold into the
// sink's aged belief; otherwise it is a full-report round whose
// deliveries are the round's reports.
func (rs *RoundSource) nextPacket(f field.Field, rd *RoundData, faulted bool) (*RoundData, error) {
	if rs.Delta && rs.delta == nil {
		ds, err := desim.NewDeltaState(rs.Env.Network.Len(), desim.DeltaConfig{GradAngle: rs.DeltaGradAngle})
		if err != nil {
			return nil, fmt.Errorf("sim: delta state: %w", err)
		}
		am, err := monitor.NewAgedMap(monitor.AgedConfig{ExpiryRounds: rs.DeltaExpiry})
		if err != nil {
			return nil, fmt.Errorf("sim: aged map: %w", err)
		}
		rs.delta, rs.aged = ds, am
	}
	plan, cfg, err := rs.roundPlan(faulted)
	if err != nil {
		return nil, err
	}
	opt := desim.RoundOptions{Faults: plan, Delta: rs.delta}
	if rs.Shards > 1 {
		opt.Engine = desim.NewShardedEngine(network.NewGridPartition(rs.Env.Network, rs.Shards), rs.Workers)
	}
	res, err := desim.RunRound(rs.Env.Tree, f, rs.Env.Query, *rs.Env.Scenario.Filter, cfg, opt)
	if err != nil {
		return nil, fmt.Errorf("sim: round %d faulted=%v delta=%v: %w", rs.round, faulted, rs.Delta, err)
	}
	rd.Reports = res.Delivered
	rd.SinkValue = rs.Env.Network.Node(rs.Env.Tree.Root()).Value
	rd.Faulted = faulted
	rd.Crashed = res.Crashed
	rd.DataFrames = int64(res.Radio.DataSent)
	rd.TxBytes = res.Counters.TotalTxBytes()
	if rs.Delta {
		st := rs.aged.Apply(rs.round, res.Delivered, nil)
		rd.Reports = rs.aged.Reports()
		rd.Delta = &DeltaRoundStats{
			Crossings:     res.Crossings,
			Suppressed:    res.Suppressed,
			Retired:       res.Retired,
			Expired:       st.Expired,
			MapReports:    st.Size,
			MeanAgeRounds: rs.aged.MeanAge(rs.round),
		}
	}
	return rd, nil
}
