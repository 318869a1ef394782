// Package core implements the Iso-Map protocol — the paper's primary
// contribution (Sec. 3): contour-mapping queries, isoline-node
// self-detection, local linear-regression gradient estimation, report
// generation, and in-network report filtering along the routing tree.
//
// The sink-side reconstruction of the contour map from the collected
// reports lives in internal/contour.
package core

import (
	"fmt"

	"isomap/internal/field"
)

// Message sizes in bytes. Per the paper's evaluation setup, "each parameter
// in a report uses two bytes, such as the sensory value, position,
// gradient, etc."
const (
	// QueryBytes covers the four query parameters (vL, vH, T, epsilon).
	QueryBytes = 8
	// ReportBytes covers an isoline report <v, p, d>: isolevel, position
	// x/y, gradient x/y — five parameters.
	ReportBytes = 10
	// ProbeBytes is the local neighborhood probe an isoline node
	// broadcasts to collect <value, position> tuples for regression.
	ProbeBytes = 2
	// ProbeReplyBytes is a neighbor's <value, position> reply.
	ProbeReplyBytes = 6
	// RetireBytes is a delta-mode retirement record <v, p>: isolevel plus
	// position identify the cached report being withdrawn — three
	// parameters, no gradient.
	RetireBytes = 6
)

// Abstract arithmetic-operation charges, the unit of the computational
// intensity metric (Fig. 15). The constants approximate instruction counts
// of the respective inner loops.
const (
	// OpsQueryParse is charged to every node that processes the query.
	OpsQueryParse = 4
	// OpsDetectPerLevel is the per-isolevel border-region check.
	OpsDetectPerLevel = 3
	// OpsDetectPerNeighbor is the condition-2 straddle check per neighbor.
	OpsDetectPerNeighbor = 4
	// OpsRegressionPerNeighbor accumulates one neighbor's terms of the
	// normal-equation sums (Eq. 2).
	OpsRegressionPerNeighbor = 15
	// OpsRegressionSolve solves the 3x3 linear system once per isoline
	// node (Eq. 2-3).
	OpsRegressionSolve = 60
	// OpsFilterPerComparison evaluates s_a and s_d for one report pair at
	// an intermediate node (Sec. 3.5).
	OpsFilterPerComparison = 12
)

// DefaultEpsilonFraction is the paper's default border-region width: 5% of
// the isolevel granularity T (Sec. 3.2).
const DefaultEpsilonFraction = 0.05

// Query is a contour-mapping query disseminated by the sink (Sec. 3.2):
// the data space [Levels.Low, Levels.High], granularity Levels.Step, and
// the border-region tolerance Epsilon for isoline-node selection.
//
// HopScope widens the neighborhood an isoline node probes for its gradient
// regression: Sec. 3.3 notes "the query scope can be adjusted within k-hop
// neighbors for different sensor deployment densities or to achieve
// different levels of estimation precision". Isoline-node detection
// (Definition 3.1) always uses the 1-hop neighborhood.
type Query struct {
	Levels  field.Levels
	Epsilon float64
	// HopScope is the regression neighborhood radius in hops; values
	// below 1 are treated as 1.
	HopScope int
}

// NewQuery builds a query with the default Epsilon of 0.05*T and a 1-hop
// regression scope.
func NewQuery(levels field.Levels) (Query, error) {
	return NewQueryEpsilon(levels, DefaultEpsilonFraction*levels.Step)
}

// NewQueryEpsilon builds a query with an explicit border tolerance,
// validating the level scheme.
func NewQueryEpsilon(levels field.Levels, epsilon float64) (Query, error) {
	if levels.Step <= 0 {
		return Query{}, fmt.Errorf("core: query granularity must be positive, got %g", levels.Step)
	}
	if levels.High < levels.Low {
		return Query{}, fmt.Errorf("core: query range [%g, %g] inverted", levels.Low, levels.High)
	}
	if epsilon <= 0 {
		return Query{}, fmt.Errorf("core: query epsilon must be positive, got %g", epsilon)
	}
	if epsilon >= levels.Step/2 {
		return Query{}, fmt.Errorf("core: epsilon %g must be below half the granularity %g", epsilon, levels.Step)
	}
	return Query{Levels: levels, Epsilon: epsilon, HopScope: 1}, nil
}

// scope returns the effective regression hop scope.
func (q Query) scope() int {
	if q.HopScope < 1 {
		return 1
	}
	return q.HopScope
}

// CandidateLevels returns the isolevels whose border region [lambda-eps,
// lambda+eps] contains value v. With epsilon < T/2 there is at most one.
func (q Query) CandidateLevels(v float64) []int {
	var out []int
	for i, lambda := range q.Levels.Values() {
		if q.InBorder(v, lambda) {
			out = append(out, i)
		}
	}
	return out
}

// InBorder reports whether value v lies in the border region [lambda-eps,
// lambda+eps] of isolevel lambda: the test CandidateLevels applies to
// each level, for callers that hold the level values already.
func (q Query) InBorder(v, lambda float64) bool {
	return v >= lambda-q.Epsilon && v <= lambda+q.Epsilon
}
