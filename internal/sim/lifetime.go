package sim

import (
	"fmt"

	"isomap/internal/baseline/tinydb"
	"isomap/internal/core"
	"isomap/internal/energy"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// LifetimeResult traces a network running one protocol round after round
// on a fixed per-node battery until it wears out.
type LifetimeResult struct {
	Protocol string
	// FirstDeathRound is the round at which the first node exhausted its
	// battery (1-based); 0 when it never happened within MaxRounds.
	FirstDeathRound int
	// TenPercentRound is the round at which 10% of nodes were dead.
	TenPercentRound int
	// UnusableRound is the round at which fewer than half the surviving
	// nodes could still reach the sink.
	UnusableRound int
	// RoundsRun is how many rounds executed.
	RoundsRun int
}

// lifetimeConfig bounds the endurance run.
const (
	lifetimeMaxRounds = 400
	// lifetimeBatteryJ is a deliberately small battery so depletion
	// patterns emerge within hundreds of rounds: about the energy of
	// a half hour of Mica2 radio activity. Real AA budgets (~10 kJ) scale all
	// round counts linearly and equally for every protocol.
	lifetimeBatteryJ = 0.5
)

// runLifetime executes rounds of a protocol until the network wears out.
// roundCost runs one round over the (possibly degraded) tree and returns
// the per-round counters.
func runLifetime(name string, env *Env, roundCost func(*routing.Tree) (*metrics.Counters, error)) (*LifetimeResult, error) {
	nw := env.Network
	sink := env.Tree.Root()
	consumed := make([]float64, nw.Len())
	res := &LifetimeResult{Protocol: name}
	tree := env.Tree
	for round := 1; round <= lifetimeMaxRounds; round++ {
		res.RoundsRun = round
		c, err := roundCost(tree)
		if err != nil {
			return nil, fmt.Errorf("sim: lifetime round %d: %w", round, err)
		}
		dead := 0
		for i := 0; i < nw.Len(); i++ {
			id := network.NodeID(i)
			consumed[i] += energy.NodeJoules(c, id)
			if id == sink {
				continue // the sink is mains-powered
			}
			if consumed[i] >= lifetimeBatteryJ && !nw.Node(id).Failed {
				nw.Node(id).Failed = true
			}
			if nw.Node(id).Failed {
				dead++
			}
		}
		if dead > 0 && res.FirstDeathRound == 0 {
			res.FirstDeathRound = round
		}
		if dead*10 >= nw.Len() && res.TenPercentRound == 0 {
			res.TenPercentRound = round
		}
		// Rebuild the routing tree over the survivors.
		tree, err = routing.NewTree(nw, sink)
		if err != nil {
			res.UnusableRound = round
			return res, nil
		}
		alive := nw.Len() - dead
		if tree.ReachableCount()*2 < alive {
			res.UnusableRound = round
			return res, nil
		}
	}
	return res, nil
}

// extLifetimeSweep runs TinyDB and Iso-Map to exhaustion on identical
// batteries: the endurance counterpart of Fig. 16's per-round energy. The
// two endurance sessions run as independent jobs. Lifetime runs mutate
// node failure state round after round, which is safe exactly because each
// Build hands out an isolated clone of the cached deployment.
func (r *Runner) extLifetimeSweep() (*Table, error) {
	t := &Table{
		ID:    "ext-lifetime",
		Title: "Network lifetime on a fixed battery (rounds; 0 = never within 400)",
		Columns: []string{
			"protocol", "first death", "10% dead", "unusable", "rounds run",
		},
	}
	results, err := runJobs(r, 2, func(i int) (*LifetimeResult, error) {
		if i == 0 {
			gridEnv, err := r.Build(Scenario{Grid: true, Seed: 1})
			if err != nil {
				return nil, err
			}
			return runLifetime("TinyDB", gridEnv, func(tree *routing.Tree) (*metrics.Counters, error) {
				res, err := tinydb.Run(tree, gridEnv.Field)
				if err != nil {
					return nil, err
				}
				return res.Counters, nil
			})
		}
		randEnv, err := r.Build(Scenario{Seed: 1})
		if err != nil {
			return nil, err
		}
		return runLifetime("Iso-Map", randEnv, func(tree *routing.Tree) (*metrics.Counters, error) {
			res, err := core.Run(tree, randEnv.Field, randEnv.Query, *randEnv.Scenario.Filter)
			if err != nil {
				return nil, err
			}
			return res.Counters, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, lr := range results {
		t.AddRow(lr.Protocol, lr.FirstDeathRound, lr.TenPercentRound, lr.UnusableRound, lr.RoundsRun)
	}
	return t, nil
}
