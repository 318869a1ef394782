package desim

import (
	"fmt"
	"math"

	"isomap/internal/core"
	"isomap/internal/network"
)

// Delta-report protocol mode: the progressive level-crossing tracking of
// the continuous-monitoring scenario, run on the real packet engine. An
// isoline node remembers what it last transmitted, per isolevel, across
// rounds. In a later round it transmits again only when the isoline
// *moved past it* — it newly straddles a level (crossing-in), its
// gradient rotated past the configured threshold (the contour is locally
// reshaping), or it stopped straddling a level it had reported
// (crossing-out, sent as a small retirement record so the sink drops the
// stale report). Unchanged repeats are suppressed at the source and
// never touch the radio. Full-report rounds (a nil DeltaState) remain
// the oracle: the delta path leaves them byte-identical.

// DefaultGradAngle is the gradient rotation above which a repeat is
// re-transmitted: 10 degrees.
const DefaultGradAngle = 10 * math.Pi / 180

// DeltaConfig tunes the delta-report mode.
type DeltaConfig struct {
	// GradAngle is the gradient rotation (radians) at or above which a
	// tracked report is re-transmitted; smaller rotations are suppressed.
	// Zero selects DefaultGradAngle.
	GradAngle float64
}

// DeltaState is the protocol's cross-round memory: each node's last
// transmitted report per isolevel. It belongs to one deployment and must
// be passed to every successive delta round; sharded execution touches
// each node's entry only from the shard owning that node, so one state
// serves any shard width. Reset (or a fresh state) restarts the protocol
// from an empty map — round 1 of a delta sequence is byte-identical to a
// full-report round.
type DeltaState struct {
	gradAngle float64
	lastSent  []map[int]core.Report
}

// NewDeltaState validates cfg and returns an empty state for a
// deployment of nodes nodes.
func NewDeltaState(nodes int, cfg DeltaConfig) (*DeltaState, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("desim: delta state needs a positive node count, got %d", nodes)
	}
	ga := cfg.GradAngle
	if ga == 0 {
		ga = DefaultGradAngle
	}
	if math.IsNaN(ga) || math.IsInf(ga, 0) || ga < 0 || ga > math.Pi {
		return nil, fmt.Errorf("desim: delta gradient threshold %g outside [0, pi]", cfg.GradAngle)
	}
	return &DeltaState{
		gradAngle: ga,
		lastSent:  make([]map[int]core.Report, nodes),
	}, nil
}

// GradAngle returns the resolved gradient-rotation threshold.
func (ds *DeltaState) GradAngle() float64 { return ds.gradAngle }

// Nodes returns the deployment size the state was built for.
func (ds *DeltaState) Nodes() int { return len(ds.lastSent) }

// Tracked returns the number of (source, isolevel) pairs currently
// tracked — the sum of per-node transmitted-report sets.
func (ds *DeltaState) Tracked() int {
	n := 0
	for _, m := range ds.lastSent {
		n += len(m)
	}
	return n
}

// Reset empties the state: the next round reports everything, like a
// session start.
func (ds *DeltaState) Reset() {
	for i := range ds.lastSent {
		ds.lastSent[i] = nil
	}
}

// tracked returns the node's tracked-report count.
func (ds *DeltaState) trackedAt(id network.NodeID) int {
	return len(ds.lastSent[id])
}

// retireRecord builds the withdrawal record for a previously transmitted
// report: same identity (source, level), Retire set, the prior values
// carried so the sink can match its cache entry.
func retireRecord(prev core.Report) core.Report {
	return core.Report{
		Level:      prev.Level,
		LevelIndex: prev.LevelIndex,
		Pos:        prev.Pos,
		Grad:       prev.Grad,
		Source:     prev.Source,
		Retire:     true,
	}
}
