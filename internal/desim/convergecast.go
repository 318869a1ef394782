package desim

import (
	"fmt"

	"isomap/internal/core"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// CollectionResult is the outcome of a packet-level report collection.
type CollectionResult struct {
	// Delivered are the reports that reached the sink, in arrival order.
	Delivered []core.Report
	// CompletionSeconds is the time the last report arrived.
	CompletionSeconds float64
	// Radio exposes the link-layer statistics of the run.
	Radio RadioStats
	// Counters holds the physical tx/rx charges (retries and acks
	// included) when collection was created with accounting.
	Counters *metrics.Counters
	// Events is the number of simulator events executed.
	Events int64
}

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
// discrete-event radio: every source injects its reports at a jittered
// start, every tree node forwards (and, with fc enabled, filters) each
// frame toward the sink as it arrives. It is the packet-level counterpart
// of core.DeliverReports.
func CollectReports(tree *routing.Tree, reports []core.Report, fc core.FilterConfig, cfg RadioConfig) (*CollectionResult, error) {
	return CollectReportsEngine(NewEngine(), tree, reports, fc, cfg)
}

// CollectReportsEngine is CollectReports on a caller-supplied scheduler:
// the production Engine or the test-only EngineNaive reference oracle.
// Both execute the identical event sequence — the equivalence property
// tests pin that.
func CollectReportsEngine(eng EngineAPI, tree *routing.Tree, reports []core.Report, fc core.FilterConfig, cfg RadioConfig) (*CollectionResult, error) {
	if tree == nil {
		return nil, fmt.Errorf("desim: nil routing tree")
	}
	nw := tree.Network()
	counters := metrics.NewCounters(nw.Len())
	radio, err := NewRadio(eng, nw, cfg, counters)
	if err != nil {
		return nil, err
	}

	res := &CollectionResult{Counters: counters}
	n := nw.Len()
	// Per-node kept reports: the filter state each node compares against.
	kept := make([][]core.Report, n)
	// Per-node outbox: reports awaiting the next flush toward the parent.
	// Batching arrivals into one frame keeps the contention near the sink
	// manageable, as real convergecast implementations do. Outboxes keep
	// their capacity across flushes.
	outbox := make([][]core.Report, n)
	flushArmed := make([]bool, n)
	const flushDelaySlots = 6

	// seen tracks exact report identity per node: transport-layer
	// re-queues after lost acks can replay a batch the node already
	// relayed, and replays must not propagate twice. Allocated lazily —
	// most nodes of a sparse collection never relay.
	seen := make([]map[core.Report]bool, n)

	// fresh is the scratch slice accept fills; its contents are consumed
	// (copied onward) before the next accept call, so one buffer serves
	// every frame.
	var freshScratch []core.Report

	// accept dedups exact replays and applies in-network filtering at a
	// node, returning the fresh subset and updating the node's state. The
	// returned slice is valid until the next accept call.
	accept := func(at network.NodeID, incoming []core.Report) []core.Report {
		if seen[at] == nil {
			seen[at] = make(map[core.Report]bool)
		}
		fresh := freshScratch[:0]
		for _, r := range incoming {
			if seen[at][r] {
				continue
			}
			seen[at][r] = true
			if !fc.Enabled {
				kept[at] = append(kept[at], r)
				fresh = append(fresh, r)
				continue
			}
			dup := false
			for _, k := range kept[at] {
				counters.ChargeOps(at, core.OpsFilterPerComparison)
				if fc.Redundant(k, r) {
					dup = true
					break
				}
			}
			if !dup {
				kept[at] = append(kept[at], r)
				fresh = append(fresh, r)
			}
		}
		freshScratch = fresh
		return fresh
	}

	// forward queues a report batch at a node and arms its flush: one
	// frame per flush carries everything queued meanwhile.
	forward := func(from network.NodeID, batch []core.Report) {
		if len(batch) == 0 {
			return
		}
		if tree.Parent(from) < 0 {
			return
		}
		outbox[from] = append(outbox[from], batch...)
		if flushArmed[from] {
			return
		}
		flushArmed[from] = true
		// Stagger flushes per node to decorrelate relay bursts.
		delay := float64(flushDelaySlots+int(from)%5) * cfg.SlotTime
		eng.ScheduleEvent(delay, Event{Kind: evFlush, Node: from})
	}

	// flush empties a node's outbox into one frame toward its parent. The
	// frame rides a pooled batch copy, so the outbox keeps its capacity.
	flush := func(from network.NodeID) {
		flushArmed[from] = false
		pending := outbox[from]
		outbox[from] = pending[:0]
		if len(pending) == 0 {
			return
		}
		batch := append(radio.pool.get(), pending...)
		_ = radio.SendReports(from, tree.Parent(from), core.ReportBytes*len(pending), batch)
	}

	// Transport-layer recovery: a batch abandoned by the link layer goes
	// back into its sender's outbox and is flushed again after a pause,
	// so sustained contention delays reports rather than losing them. The
	// dropped frame's batch is recycled when the handler returns, so it
	// is parked in a pooled copy until the re-queue event fires.
	var parked parkedBatches
	radio.OnDrop(func(f Frame) {
		if f.Kind != FrameReports {
			return
		}
		slot := parked.park(&radio.pool, f.Batch)
		eng.ScheduleEvent(32*cfg.SlotTime, Event{Kind: evRequeue, Node: f.From, Arg: slot})
	})

	// Inject every source's reports with a small deterministic jitter to
	// de-synchronize first transmissions.
	bySource := make([][]core.Report, n)
	for _, r := range reports {
		if tree.Reachable(r.Source) {
			bySource[r.Source] = append(bySource[r.Source], r)
		}
	}

	root := tree.Root()
	// onFrame is the single receive handler every tree node shares:
	// filter, then deliver or relay.
	onFrame := func(at network.NodeID, f Frame) {
		if f.Kind != FrameReports {
			return
		}
		fresh := accept(at, f.Batch)
		if at == root {
			res.Delivered = append(res.Delivered, fresh...)
			if len(fresh) > 0 {
				res.CompletionSeconds = eng.Now()
			}
			return
		}
		forward(at, fresh)
	}
	for i := 0; i < n; i++ {
		if id := network.NodeID(i); tree.Reachable(id) {
			radio.OnReceive(id, onFrame)
		}
	}

	radio.OnEvent(func(ev Event) {
		switch ev.Kind {
		case evFlush:
			flush(ev.Node)
		case evRequeue:
			b := parked.take(ev.Arg)
			forward(ev.Node, b)
			radio.pool.put(b)
		case evInject:
			fresh := accept(ev.Node, bySource[ev.Node])
			if ev.Node == root {
				res.Delivered = append(res.Delivered, fresh...)
				return
			}
			forward(ev.Node, fresh)
		}
	})

	jitter := 0
	for i := 0; i < n; i++ {
		id := network.NodeID(i)
		if len(bySource[id]) == 0 {
			continue
		}
		jitter++
		// Spread source injections widely: simultaneous first
		// transmissions across the field are what collision storms feed
		// on.
		eng.ScheduleEvent(float64(jitter*3%256)*cfg.SlotTime, Event{Kind: evInject, Node: id})
	}

	eng.Run()
	res.Radio = radio.Stats
	res.Events = eng.Steps()
	return res, nil
}
