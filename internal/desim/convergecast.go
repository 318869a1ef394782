package desim

import (
	"fmt"

	"isomap/internal/core"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// parkedBatches holds report batches the transport layer has taken off a
// dropped frame while their re-queue event is in flight. Slots recycle
// through a free-list and the batch slices come from (and return to) the
// radio's pool, so sustained loss re-queues without allocating.
type parkedBatches struct {
	slots [][]core.Report
	free  []int32
}

// park copies batch into a pooled slice and returns its slot.
func (p *parkedBatches) park(pool *batchPool, batch []core.Report) int32 {
	var s int32
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.slots = append(p.slots, nil)
		s = int32(len(p.slots) - 1)
	}
	p.slots[s] = append(pool.get(), batch...)
	return s
}

// take empties a slot, returning its batch; the caller must hand the
// batch back to the pool when done.
func (p *parkedBatches) take(s int32) []core.Report {
	b := p.slots[s]
	p.slots[s] = nil
	p.free = append(p.free, s)
	return b
}

// CollectReports executes the delivery phase of an Iso-Map round on the
// discrete-event radio, through the same convergecast a full packet round
// runs: every routable source injects its reports at a jittered start,
// and every tree node filters (with fc enabled) and forwards each frame
// toward the sink as it arrives, re-queueing batches the link layer
// abandons. It is the packet-level counterpart of core.DeliverReports.
// Nothing is sensed and no query is flooded, so the result's query and
// measurement tallies stay zero; CollectSeconds is the time the last
// report reached the sink. eng is the scheduler (nil selects
// NewEngine()).
func CollectReports(eng EngineAPI, tree *routing.Tree, reports []core.Report, fc core.FilterConfig, cfg RadioConfig) (*RoundResult, error) {
	if tree == nil {
		return nil, fmt.Errorf("desim: nil routing tree")
	}
	rs, err := newRound(tree, core.Query{}, fc, cfg, RoundOptions{Engine: eng})
	if err != nil {
		return nil, err
	}
	rs.injects = make([][]core.Report, rs.nw.Len())
	for _, r := range reports {
		if tree.Reachable(r.Source) {
			rs.injects[r.Source] = append(rs.injects[r.Source], r)
		}
	}
	jitter := 0
	for i, batch := range rs.injects {
		if len(batch) == 0 {
			continue
		}
		jitter++
		// Spread source injections widely: simultaneous first
		// transmissions across the field are what collision storms feed
		// on.
		rs.eng.ScheduleEvent(float64(jitter*3%256)*cfg.SlotTime, Event{Kind: evInject, Node: network.NodeID(i)})
	}
	return rs.run(nil), nil
}
