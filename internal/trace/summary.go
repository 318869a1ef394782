package trace

import "isomap/internal/energy"

// PhaseBreakdown aggregates one protocol phase's link-layer activity —
// the per-phase cost localization the aggregate round stats cannot give.
type PhaseBreakdown struct {
	Phase string `json:"phase"`
	// Tx/TxBytes count physical transmissions (retries and acks
	// included) attributed to the phase; Rx/RxBytes count charged
	// receptions.
	Tx      int64 `json:"tx"`
	TxBytes int64 `json:"txBytes"`
	Rx      int64 `json:"rx"`
	RxBytes int64 `json:"rxBytes"`
	// Delivered counts exactly-once upper-layer deliveries.
	Delivered int64 `json:"delivered"`
	// Sends counts unicast data frames entering the link layer.
	Sends int64 `json:"sends"`
	// Drop accounting, split by cause.
	Drops         int64 `json:"drops"`
	DropRetries   int64 `json:"dropRetries"`
	DropDeadline  int64 `json:"dropDeadline"`
	DropDead      int64 `json:"dropDead"`
	Backoffs      int64 `json:"backoffs"`
	Retries       int64 `json:"retries"`
	Collisions    int64 `json:"collisions"`
	ChannelLosses int64 `json:"channelLosses"`
	// TxJoules/RxJoules convert the byte totals through the Mica2 radio
	// model: where the round's energy actually went, phase by phase.
	TxJoules float64 `json:"txJoules"`
	RxJoules float64 `json:"rxJoules"`
	// FirstT/LastT span the phase's activity in simulated seconds.
	FirstT float64 `json:"firstT"`
	LastT  float64 `json:"lastT"`
}

// StageTiming is one sink-side reconstruction stage measurement.
type StageTiming struct {
	Stage string `json:"stage"`
	// Level is the isolevel index the stage ran for, or -1 for
	// whole-map stages (raster).
	Level int `json:"level"`
	// Nanos is the wall-clock duration.
	Nanos int64 `json:"nanos"`
}

// Summary is the aggregated view of a recorded trace: per-phase
// breakdown tables plus round-level totals. perfbench's traced run reads
// its per-phase metrics from it, and cmd/isomapsim publishes it.
type Summary struct {
	// Events counts aggregated events; DroppedEvents counts ring
	// overwrites (nonzero means the breakdown undercounts).
	Events        int64 `json:"events"`
	DroppedEvents int64 `json:"droppedEvents"`
	// Round totals.
	Sends      int64 `json:"sends"`
	Delivered  int64 `json:"delivered"`
	Acked      int64 `json:"acked"`
	Drops      int64 `json:"drops"`
	Crashes    int64 `json:"crashes"`
	Reparents  int64 `json:"reparents"`
	Severed    int64 `json:"severed"`
	QueryHeard int64 `json:"queryHeard"`
	// Wakes counts nodes that started the round on their standing-query
	// epoch timer instead of a flood (delta rounds between floods).
	Wakes       int64 `json:"wakes,omitempty"`
	Generated   int64 `json:"generated"`
	SinkReports int64 `json:"sinkReports"`
	// Delta-mode totals: level transits reported, repeats withheld at the
	// source, and stale sink entries aged out (zero outside delta rounds).
	Crossings     int64   `json:"crossings,omitempty"`
	Suppressed    int64   `json:"suppressed,omitempty"`
	AgeExpired    int64   `json:"ageExpired,omitempty"`
	RoundSeconds  float64 `json:"roundSeconds"`
	SinkDelivered int64   `json:"sinkDelivered"`
	// Phases lists the per-phase breakdowns in fixed order (query,
	// measure, collect, link, none), omitting phases with no activity.
	Phases []PhaseBreakdown `json:"phases"`
	// SinkStages lists the reconstruction stage timings in recording
	// order (empty when the sink path was not traced).
	SinkStages []StageTiming `json:"sinkStages,omitempty"`
}

// Summarize aggregates the recorder's held events.
func (r *Recorder) Summarize() Summary {
	return Summarize(r.Events(), r.Dropped())
}

// Summarize aggregates a trace into per-phase breakdowns and round
// totals. dropped is the number of events lost to ring overwrite.
func Summarize(events []Event, dropped int64) Summary {
	s := Summary{Events: int64(len(events)), DroppedEvents: dropped}
	var phases [phaseCount]PhaseBreakdown
	var seen [phaseCount]bool
	touch := func(ev Event) *PhaseBreakdown {
		pb := &phases[ev.Phase]
		if !seen[ev.Phase] || ev.T < pb.FirstT {
			pb.FirstT = ev.T
		}
		if !seen[ev.Phase] || ev.T > pb.LastT {
			pb.LastT = ev.T
		}
		seen[ev.Phase] = true
		return pb
	}
	for _, ev := range events {
		switch ev.Kind {
		case KindSend:
			touch(ev).Sends++
			s.Sends++
		case KindTx:
			pb := touch(ev)
			pb.Tx++
			pb.TxBytes += int64(ev.Bytes)
		case KindRx:
			pb := touch(ev)
			pb.Rx++
			pb.RxBytes += int64(ev.Bytes)
		case KindDeliver:
			touch(ev).Delivered++
			s.Delivered++
		case KindAck:
			touch(ev)
			s.Acked++
		case KindDrop, KindDead:
			pb := touch(ev)
			pb.Drops++
			s.Drops++
			switch ev.Cause {
			case CauseRetries:
				pb.DropRetries++
			case CauseDeadline:
				pb.DropDeadline++
			case CauseSenderDead:
				pb.DropDead++
			}
		case KindBackoff:
			touch(ev).Backoffs++
		case KindRetry:
			touch(ev).Retries++
		case KindCollision:
			touch(ev).Collisions++
		case KindChanLoss:
			touch(ev).ChannelLosses++
		case KindCrash:
			s.Crashes++
		case KindReparent:
			s.Reparents++
		case KindSevered:
			s.Severed++
		case KindQueryHeard:
			s.QueryHeard++
		case KindWake:
			s.Wakes++
		case KindGenerate:
			s.Generated += int64(ev.Arg)
		case KindSinkReport:
			s.SinkReports += int64(ev.Arg)
		case KindCrossing:
			s.Crossings++
		case KindSuppress:
			s.Suppressed++
		case KindAgeExpire:
			s.AgeExpired++
		case KindRoundEnd:
			s.RoundSeconds = ev.T
			s.SinkDelivered = ev.Seq
		case KindSinkStage:
			s.SinkStages = append(s.SinkStages, StageTiming{
				Stage: Stage(ev.Arg).String(),
				Level: int(ev.Seq),
				Nanos: ev.DurNs,
			})
		}
	}
	for _, p := range []Phase{PhaseQuery, PhaseMeasure, PhaseCollect, PhaseLink, PhaseNone} {
		if !seen[p] {
			continue
		}
		pb := phases[p]
		pb.Phase = p.String()
		pb.TxJoules = energy.TxJoules(pb.TxBytes)
		pb.RxJoules = energy.RxJoules(pb.RxBytes)
		s.Phases = append(s.Phases, pb)
	}
	return s
}
