package sim

import (
	"strconv"

	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/metrics"
)

// extMACSweep runs Iso-Map's report collection on the packet-level
// CSMA/CA engine and contrasts it with the structural (perfect-link)
// model: completion time, collision counts, and the physical byte overhead
// of acknowledgements and retransmissions.
func (r *Runner) extMACSweep() (*Table, error) {
	t := &Table{
		ID:    "ext-mac",
		Title: "Packet-level CSMA/CA collection vs structural model (Iso-Map)",
		Columns: []string{
			"nodes", "filter", "delivered/structural", "completion (s)",
			"collisions", "phys bytes / struct bytes",
		},
	}
	type cell struct {
		n        int
		filtered bool
	}
	var cells []cell
	for _, n := range []int{400, 2500} {
		for _, filtered := range []bool{true, false} {
			cells = append(cells, cell{n, filtered})
		}
	}
	rows, err := runJobs(r, len(cells), func(i int) ([]any, error) {
		n, filtered := cells[i].n, cells[i].filtered
		env, err := r.Build(Scenario{Nodes: n, FieldSide: sideForNodes(n), Seed: 1})
		if err != nil {
			return nil, err
		}
		env.Network.Sense(env.Field)
		generated := core.DetectIsolineNodes(env.Network, env.Query, nil)
		routableReports := routable(env, generated)
		fc := core.FilterConfig{Enabled: false}
		label := "off"
		if filtered {
			fc = core.DefaultFilterConfig()
			label = "on"
		}
		sc := metrics.NewCounters(env.Network.Len())
		structural := core.DeliverReports(env.Tree, routableReports, fc, sc)
		structuralBytes := sc.TotalTxBytes()

		res, err := desim.CollectReports(nil, env.Tree, routableReports, fc, desim.DefaultRadioConfig())
		if err != nil {
			return nil, err
		}
		ratio := float64(res.Counters.TotalTxBytes()) / float64(max(structuralBytes, 1))
		return []any{n, label,
			intPair(len(res.Delivered), len(structural)),
			res.CollectSeconds,
			res.Radio.Collisions,
			ratio}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// sideForNodes returns the field side giving density 1.
func sideForNodes(n int) float64 {
	switch n {
	case 400:
		return 20
	case 2500:
		return 50
	default:
		return 50
	}
}

func intPair(a, b int) string {
	return strconv.Itoa(a) + "/" + strconv.Itoa(b)
}
