package sim

import (
	"fmt"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/localize"
	"isomap/internal/schedule"
)

// extLatencySweep derives the TAG-slotted collection-epoch profile of an
// Iso-Map round — latency, bottleneck buffering and idle listening — with
// and without in-network filtering, across network sizes.
func (r *Runner) extLatencySweep() (*Table, error) {
	t := &Table{
		ID:    "ext-latency",
		Title: "Collection epoch under level-slotted scheduling (Iso-Map)",
		Columns: []string{
			"field side", "nodes", "filter", "epoch (s)", "max queue (reports)", "idle listen (J/node)",
		},
	}
	type cell struct {
		side     float64
		filtered bool
	}
	var cells []cell
	for _, side := range []float64{20, 50, 90} {
		for _, filtered := range []bool{true, false} {
			cells = append(cells, cell{side, filtered})
		}
	}
	type row struct {
		nodes int
		ep    *schedule.Epoch
	}
	rows, err := runJobs(r, len(cells), func(i int) (row, error) {
		side, filtered := cells[i].side, cells[i].filtered
		env, err := r.Build(Scenario{Nodes: int(side * side), FieldSide: side, Seed: 1})
		if err != nil {
			return row{}, err
		}
		env.Network.Sense(env.Field)
		generated := core.DetectIsolineNodes(env.Network, env.Query, nil)
		fc := core.FilterConfig{Enabled: false}
		if filtered {
			fc = core.DefaultFilterConfig()
		}
		d := core.DeliverReportsDetailed(env.Tree, routable(env, generated), fc, nil)
		ep, err := schedule.PlanEpoch(env.Tree, d, core.ReportBytes)
		if err != nil {
			return row{}, err
		}
		return row{nodes: env.Network.Len(), ep: ep}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		label := "off"
		if c.filtered {
			label = "on"
		}
		t.AddRow(c.side, rows[i].nodes, label,
			rows[i].ep.TotalSeconds, rows[i].ep.MaxQueueReports, rows[i].ep.IdleListenJoulesPerNode)
	}
	return t, nil
}

func routable(env *Env, reports []core.Report) []core.Report {
	out := make([]core.Report, 0, len(reports))
	for _, r := range reports {
		if env.Tree.Reachable(r.Source) {
			out = append(out, r)
		}
	}
	return out
}

// extLocalizeSweep measures what DV-hop localization (instead of GPS)
// costs the contour map: report positions are replaced by their DV-hop
// estimates before reconstruction, for growing anchor populations.
func (r *Runner) extLocalizeSweep(runs int) (*Table, error) {
	t := &Table{
		ID:      "ext-localize",
		Title:   "Mapping accuracy with DV-hop positions instead of GPS",
		Columns: []string{"anchors", "mean position error", "accuracy"},
	}
	type setting struct {
		label   string
		anchors int
	}
	settings := []setting{
		{"4", 4}, {"9", 9}, {"16", 16}, {"25", 25}, {"GPS", 0},
	}
	rows, err := sweepAverage(r, len(settings), runs, func(p int, seed int64) ([]float64, error) {
		return r.localizedAccuracy(settings[p].anchors, seed)
	})
	if err != nil {
		return nil, err
	}
	for p, s := range settings {
		t.AddRow(s.label, rows[p][0], rows[p][1])
	}
	return t, nil
}

// localizedAccuracy runs one Iso-Map round whose report positions come
// from DV-hop with the given anchor count (0 = true GPS positions),
// returning {mean position error, accuracy}.
func (r *Runner) localizedAccuracy(anchors int, seed int64) ([]float64, error) {
	env, err := r.Build(Scenario{Seed: seed})
	if err != nil {
		return nil, err
	}
	res, err := core.Run(env.Tree, env.Field, env.Query, *env.Scenario.Filter)
	if err != nil {
		return nil, err
	}
	reports := res.Reports
	posErr := 0.0
	if anchors > 0 {
		anchorIDs, err := localize.SpreadAnchors(env.Network, anchors)
		if err != nil {
			return nil, err
		}
		loc, err := localize.DVHop(env.Network, anchorIDs)
		if err != nil {
			return nil, err
		}
		posErr = loc.MeanError
		relocated := make([]core.Report, 0, len(reports))
		for _, rp := range reports {
			est, ok := loc.Estimated[rp.Source]
			if !ok {
				continue // unlocalized nodes cannot report a position
			}
			rp.Pos = est
			relocated = append(relocated, rp)
		}
		if len(relocated) == 0 {
			return nil, fmt.Errorf("sim: no localized reports")
		}
		reports = relocated
	}
	m := contour.Reconstruct(reports, env.Query.Levels,
		field.BoundsRect(env.Field), res.SinkValue, contour.DefaultOptions())
	acc := field.Agreement(env.truthRaster(), env.estRaster(m))
	return []float64{posErr, acc}, nil
}
