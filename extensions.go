package isomap

import (
	"isomap/internal/core"
	"isomap/internal/events"
	"isomap/internal/field"
)

// Extension types: continuous monitoring, time-varying fields and
// contour-event analysis (the paper's future-work directions).
type (
	// DynamicField is a time-varying scalar field.
	DynamicField = field.DynamicField
	// SiltingSeabed is a seabed with progressive silt deposition.
	SiltingSeabed = field.SiltingSeabed
	// Region is a connected contour region extracted from a raster.
	Region = events.Region
	// Change describes a region's evolution between rounds.
	Change = events.Change
	// Confusion is a per-class confusion matrix between contour rasters.
	Confusion = field.Confusion
)

// NewConfusion builds the per-class confusion matrix between a truth and
// an estimated contour raster, refining the scalar Accuracy metric with
// per-band recall/precision and the off-by-one error share.
func NewConfusion(truth, estimate *Raster) *Confusion {
	return field.ConfusionMatrix(truth, estimate)
}

// DefaultSilting returns the experiment suite's silting scenario over a
// base seabed: a deposition band across the route with a 3x storm between
// t=4 and t=6.
func DefaultSilting(base Field) *SiltingSeabed { return field.DefaultSilting(base) }

// Regions extracts the connected contour regions of a raster whose class
// satisfies pred (see RegionsBelow / RegionsAtLeast for common
// predicates), largest first.
func Regions(ra *Raster, pred func(class int) bool) []Region {
	return events.Components(ra, pred)
}

// RegionsBelow extracts the regions shallower than the k-th isolevel —
// alarm zones in the harbor application.
func RegionsBelow(ra *Raster, k int) []Region {
	return events.Components(ra, events.ClassBelow(k))
}

// RegionsAtLeast extracts the regions at or above the k-th isolevel.
func RegionsAtLeast(ra *Raster, k int) []Region {
	return events.Components(ra, events.ClassAtLeast(k))
}

// CorridorAtLeast reports whether a connected corridor of cells at or
// above the k-th isolevel crosses the raster from its left edge to its
// right edge — the navigability question for a ship needing that depth.
func CorridorAtLeast(ra *Raster, k int) bool {
	return events.SpansHorizontally(ra, events.ClassAtLeast(k))
}

// TrackRegions matches a round's regions against the previous round's and
// classifies each as appeared / disappeared / grew / shrank / stable.
func TrackRegions(prev, cur []Region) []Change { return events.Track(prev, cur) }

// RunEdgeBased executes a protocol round with the edge-based isoline-node
// election instead of Definition 3.1's border band: every radio edge that
// straddles an isolevel elects its closer endpoint, needing no epsilon.
// It improves sparse-deployment coverage markedly (see ext-detect in
// EXPERIMENTS.md).
func RunEdgeBased(tree *Tree, f Field, q Query, fc FilterConfig) (*Result, error) {
	tree.Network().Sense(f)
	return core.RunSensedWithDetector(tree, q, fc, core.DetectIsolineNodesEdgeBased)
}
