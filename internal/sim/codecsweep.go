package sim

import (
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
)

// extCodecSweep measures what the wire format costs: reports pass through
// the fixed-point codec (quantizing position, isolevel and gradient)
// before reconstruction, at the paper's 2 bytes per parameter and at a
// compact 1 byte per parameter that halves the report traffic.
func (r *Runner) extCodecSweep(runs int) (*Table, error) {
	t := &Table{
		ID:      "ext-codec",
		Title:   "Wire-format quantization: accuracy vs report size",
		Columns: []string{"bytes/param", "report bytes", "traffic KB (reports only)", "accuracy"},
	}
	type setting struct {
		label string
		bpp   int // 0 = no codec (float64 reference)
	}
	settings := []setting{{"exact (no codec)", 0}, {"2 (paper)", 2}, {"1 (compact)", 1}}
	rows, err := sweepAverage(r, len(settings), runs, func(p int, seed int64) ([]float64, error) {
		return r.codecRow(settings[p].bpp, seed)
	})
	if err != nil {
		return nil, err
	}
	for p, s := range settings {
		t.AddRow(s.label, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

func (r *Runner) codecRow(bpp int, seed int64) ([]float64, error) {
	env, err := r.Build(Scenario{Seed: seed})
	if err != nil {
		return nil, err
	}
	res, err := core.Run(env.Tree, env.Field, env.Query, *env.Scenario.Filter)
	if err != nil {
		return nil, err
	}
	reports := res.Reports
	reportBytes := float64(core.ReportBytes)
	if bpp > 0 {
		codec, err := core.NewCodec(env.Query.Levels, field.BoundsRect(env.Field), bpp)
		if err != nil {
			return nil, err
		}
		reportBytes = float64(codec.ReportSize())
		decoded, err := codec.DecodeAll(codec.EncodeAll(reports))
		if err != nil {
			return nil, err
		}
		reports = decoded
	}
	// Report-only traffic: every delivered report re-costed at the wire
	// size over its source's hop count.
	var trafficBytes float64
	for _, rp := range res.Reports {
		trafficBytes += reportBytes * float64(env.Tree.Level(rp.Source))
	}
	m := contour.Reconstruct(reports, env.Query.Levels,
		field.BoundsRect(env.Field), res.SinkValue, contour.DefaultOptions())
	acc := field.Agreement(env.truthRaster(), env.estRaster(m))
	return []float64{reportBytes, trafficBytes / 1024, acc}, nil
}
