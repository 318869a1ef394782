package sim

import (
	"runtime"
	"sync"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// Runner executes experiment sweeps: it fans the independent (scenario,
// seed) cells of each figure out over a bounded worker pool and aggregates
// the results in deterministic order, so the output of a parallel run is
// byte-identical to a sequential one. Behind the pool sit two caches that
// remove the structural waste of the sweep grid:
//
//   - a deployment cache, memoizing the materialized field, network and
//     routing tree per (Nodes, FieldSide, Radio, Grid, Seed, FailFraction,
//     Trace) tuple — every Build hands out an isolated Network.Clone of
//     the cached deployment, so concurrent jobs never share mutable node
//     state;
//   - a ground-truth memo (field.Memo), computing each truth raster and
//     isoline point set once per (field, levels, resolution) key.
//
// Both caches rely on deployments being deterministic in the scenario and
// on protocol rounds never mutating anything but node values (each Run*
// re-senses; see the Env contract in this package and routing.Tree.Rebind).
//
// A Runner is safe for concurrent use and retains its caches for its
// lifetime; use separate Runners to isolate cache state.
type Runner struct {
	parallel int
	sem      chan struct{}

	memo *field.Memo

	mu          sync.Mutex
	fields      map[field.SeabedConfig]field.Field
	deployments map[deployKey]*deployEntry
}

// deployKey identifies one materialized deployment. Query-side scenario
// knobs (Levels, Epsilon, Filter, Regulate) deliberately do not appear:
// they never influence the field, the node placement or the routing tree,
// so scenarios differing only in those share a deployment.
type deployKey struct {
	nodes        int
	fieldSide    float64
	radio        float64
	grid         bool
	seed         int64
	failFraction float64
	trace        field.Field
}

// deployEntry is a once-guarded cache slot, so concurrent jobs requesting
// the same deployment build it exactly once without serializing builds of
// distinct deployments.
type deployEntry struct {
	once sync.Once
	dep  *deployment
	err  error
}

// deployment is the immutable, shareable part of a built scenario.
type deployment struct {
	field field.Field
	nw    *network.Network
	tree  *routing.Tree
}

// NewRunner returns a runner with the given worker-pool width; parallel
// < 1 selects GOMAXPROCS.
func NewRunner(parallel int) *Runner {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		parallel:    parallel,
		sem:         make(chan struct{}, parallel),
		memo:        field.NewMemo(),
		fields:      make(map[field.SeabedConfig]field.Field),
		deployments: make(map[deployKey]*deployEntry),
	}
}

// Build materializes the scenario through the runner's caches: the
// deployment (field, network, tree) is memoized per deployKey and handed
// out as an isolated clone, while the query side is rebuilt per call. The
// returned Env is equivalent to one from an uncached build and is owned
// exclusively by the caller.
func (r *Runner) Build(s Scenario) (*Env, error) {
	s = s.withDefaults()
	if s.Trace != nil && !field.Cacheable(s.Trace) {
		// A trace whose dynamic type cannot key a map is built directly.
		env, err := buildEnv(s, s.Trace, r.memo)
		if err != nil {
			return nil, err
		}
		env.rasterWorkers = r.rasterWorkers()
		return env, nil
	}
	key := deployKey{
		nodes:        s.Nodes,
		fieldSide:    s.FieldSide,
		radio:        s.Radio,
		grid:         s.Grid,
		seed:         s.Seed,
		failFraction: s.FailFraction,
		trace:        s.Trace,
	}
	r.mu.Lock()
	e, ok := r.deployments[key]
	if !ok {
		e = &deployEntry{}
		r.deployments[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.dep, e.err = r.buildDeployment(s) })
	if e.err != nil {
		return nil, e.err
	}
	nw := e.dep.nw.Clone()
	tree, err := e.dep.tree.Rebind(nw)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQueryEpsilon(s.Levels, s.Epsilon)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scenario: s, Field: e.dep.field, Network: nw, Tree: tree, Query: q,
		memo: r.memo, rasterWorkers: r.rasterWorkers(),
	}, nil
}

// rasterWorkers returns the per-Env raster pool width: sequential inside a
// parallel runner (the sweep already saturates the cores), unconstrained
// otherwise.
func (r *Runner) rasterWorkers() int {
	if r.parallel > 1 {
		return 1
	}
	return 0
}

// buildDeployment materializes the deployment side of a defaulted
// scenario, sharing synthetic fields per config across deployments so the
// truth memo keys coincide for every seed of a sweep.
func (r *Runner) buildDeployment(s Scenario) (*deployment, error) {
	f := s.Trace
	if f == nil {
		cfg := seabedConfigFor(s)
		r.mu.Lock()
		cached, ok := r.fields[cfg]
		if !ok {
			cached = field.NewSeabed(cfg)
			r.fields[cfg] = cached
		}
		r.mu.Unlock()
		f = cached
	}
	nw, tree, err := deploy(s, f)
	if err != nil {
		return nil, err
	}
	return &deployment{field: f, nw: nw, tree: tree}, nil
}

// runJobs executes n independent jobs on the runner's bounded pool and
// returns their results indexed by job, failing with the lowest-indexed
// error so error reporting is deterministic too.
func runJobs[T any](r *Runner, n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			out[i], errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepAverage fans all (point, seed) cells of a sweep out as independent
// jobs — not one sweep point at a time — and returns the per-point
// elementwise averages in point order, skipping negative (n/a) samples as
// averageVecs does.
func sweepAverage(r *Runner, points, runs int, cell func(point int, seed int64) ([]float64, error)) ([][]float64, error) {
	if runs < 1 {
		runs = 1
	}
	flat, err := runJobs(r, points*runs, func(i int) ([]float64, error) {
		return cell(i/runs, int64(i%runs)+1)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, points)
	for p := range out {
		out[p] = averageVecs(flat[p*runs : (p+1)*runs])
	}
	return out, nil
}

// averageVecs averages same-length vectors elementwise, skipping negative
// (n/a) samples; an element with no valid samples averages to -1.
func averageVecs(vecs [][]float64) []float64 {
	var sums []float64
	var counts []int
	for _, vals := range vecs {
		if sums == nil {
			sums = make([]float64, len(vals))
			counts = make([]int, len(vals))
		}
		for i, v := range vals {
			if v < 0 {
				continue
			}
			sums[i] += v
			counts[i]++
		}
	}
	out := make([]float64, len(sums))
	for i := range sums {
		if counts[i] == 0 {
			out[i] = -1
			continue
		}
		out[i] = sums[i] / float64(counts[i])
	}
	return out
}
