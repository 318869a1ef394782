package desim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
//
// The query itself is standing: a node keeps the query it last heard
// flooded, and the time it first heard that flood, across rounds. A
// round floods only when no query is held yet, when the query changed,
// or RefloodRounds rounds after the last flood; every other round starts
// each node that holds the query on a local epoch timer at its recorded
// flood arrival time, so nodes keep their flood-round schedule without
// the flood on the air.

// DefaultGradAngle is the gradient rotation above which a repeat is
// re-transmitted: 10 degrees.
const DefaultGradAngle = 10 * math.Pi / 180

// RefloodRounds is K, the standing query's refresh period: a delta round
// re-floods the held query once RefloodRounds rounds have run since the
// last flood, so floods fall on rounds 1, K+1, 2K+1, ... of an unchanged
// query. It bounds how long a node that missed a flood (radio loss, a
// node that was down) stays silent, and it matches the sink belief's
// staleness horizon in the monitoring deployments (DESIGN.md,
// "Persistent query").
const RefloodRounds = 8

// DeltaConfig tunes the delta-report mode.
type DeltaConfig struct {
	// GradAngle is the gradient rotation (radians) at or above which a
	// tracked report is re-transmitted; smaller rotations are suppressed.
	// Zero selects DefaultGradAngle.
	GradAngle float64
}

// DeltaState is the protocol's cross-round memory: each node's last
// transmitted report per isolevel, and the standing query with each
// node's epoch offset. It belongs to one deployment and must be passed to
// every successive delta round; sharded execution touches each node's
// entries only from the shard owning that node, so one state serves any
// shard width. Reset (or a fresh state) restarts the protocol from an
// empty map and no held query — round 1 of a delta sequence is
// byte-identical to a full-report round.
type DeltaState struct {
	gradAngle float64
	// lastSent is each node's last transmitted report per isolevel.
	lastSent []sentSet

	// query is the query last flooded, compared by value. sinceFlood
	// counts the rounds run since that flood, the flood round included;
	// zero means no query is held (a fresh or Reset state).
	query      core.Query
	sinceFlood int
	// offset is each node's epoch offset: the simulated time it first
	// heard the most recent flood of the held query that reached it, -1
	// when none did.
	offset []float64
	// wakeOrder lists the nodes holding an offset by (offset, id), the
	// order their timers fire in; offsets change only in flood rounds,
	// after which it is rebuilt.
	wakeOrder []network.NodeID
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
	ds := &DeltaState{
		gradAngle: ga,
		lastSent:  make([]sentSet, nodes),
		offset:    make([]float64, nodes),
	}
	ds.Reset()
	return ds, nil
}

// GradAngle returns the resolved gradient-rotation threshold.
func (ds *DeltaState) GradAngle() float64 { return ds.gradAngle }

// Nodes returns the deployment size the state was built for.
func (ds *DeltaState) Nodes() int { return len(ds.lastSent) }

// Tracked returns the number of (source, isolevel) pairs currently
// tracked — the sum of per-node transmitted-report sets.
func (ds *DeltaState) Tracked() int {
	n := 0
	for i := range ds.lastSent {
		n += int(ds.lastSent[i].n)
	}
	return n
}

// Reset empties the state: the next round floods the query and reports
// everything, like a session start.
func (ds *DeltaState) Reset() {
	clear(ds.lastSent)
	ds.query, ds.sinceFlood, ds.wakeOrder = core.Query{}, 0, nil
	ds.clearOffsets()
}

func (ds *DeltaState) clearOffsets() {
	for i := range ds.offset {
		ds.offset[i] = -1
	}
}

// beginRound decides whether the round about to run with query q floods
// it, and advances the flood clock. A changed query forgets every epoch
// offset; a re-flood of the held query keeps the offsets of the nodes
// that miss it, which the flood's arrivals overwrite for those that hear
// it.
func (ds *DeltaState) beginRound(q core.Query) (flood bool) {
	held := ds.sinceFlood > 0
	flood = !held || ds.query != q || ds.sinceFlood >= RefloodRounds
	if flood {
		if held && ds.query != q {
			ds.clearOffsets()
		}
		ds.query, ds.sinceFlood = q, 0
	}
	ds.sinceFlood++
	return flood
}

// sortWakes rebuilds the wake order from the offsets a flood round left.
func (ds *DeltaState) sortWakes() {
	ds.wakeOrder = ds.wakeOrder[:0]
	for i, off := range ds.offset {
		if off >= 0 {
			ds.wakeOrder = append(ds.wakeOrder, network.NodeID(i))
		}
	}
	slices.SortFunc(ds.wakeOrder, func(a, b network.NodeID) int {
		return cmp.Or(cmp.Compare(ds.offset[a], ds.offset[b]), cmp.Compare(a, b))
	})
}

// trackedAt returns the node's tracked-report count.
func (ds *DeltaState) trackedAt(id network.NodeID) int {
	return int(ds.lastSent[id].n)
}

// sentSet is one node's last transmitted report per isolevel, unordered.
// A node straddles one isolevel in all but rare rounds, so the first
// report sits inline in the node's entry; more holds any further ones
// (a node between two close isolines), so the set is exact for any level
// count. Only the shard owning the node touches its set.
type sentSet struct {
	one  core.Report
	n    int32
	more []core.Report
}

// at returns the set's i-th report, i < n.
func (s *sentSet) at(i int) *core.Report {
	if i == 0 {
		return &s.one
	}
	return &s.more[i-1]
}

// find returns the position of isolevel li's report, -1 when untracked.
func (s *sentSet) find(li int) int {
	for i := range int(s.n) {
		if s.at(i).LevelIndex == li {
			return i
		}
	}
	return -1
}

// put records r as the last report sent on its isolevel.
func (s *sentSet) put(r core.Report) {
	if i := s.find(r.LevelIndex); i >= 0 {
		*s.at(i) = r
		return
	}
	if s.n == 0 {
		s.one = r
	} else {
		s.more = append(s.more, r)
	}
	s.n++
}

// remove deletes the report at position i, moving the last one into its
// place.
func (s *sentSet) remove(i int) {
	last := int(s.n) - 1
	*s.at(i) = *s.at(last)
	if last > 0 {
		s.more = s.more[:last-1]
	}
	s.n--
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
