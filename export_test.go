package distbound

import (
	"context"

	"distbound/internal/planner"
)

// runDataset executes one dataset query on a fixed strategy — the hook the
// differential and mutable-dataset tests use to pin every strategy against
// every other on the same mutated dataset. It lives in a _test file because
// production callers all route through Do/executeMulti; keeping it here
// means there is exactly one execution path to diverge from (none).
func (e *Engine) runDataset(ds *Dataset, agg Agg, bound float64, strategy Strategy, workers int) (Result, error) {
	var resp Response
	err := e.executeMulti(context.Background(),
		Request{Dataset: ds, Aggs: []Agg{agg}, Bound: bound}, strategy, workers, &resp)
	if err != nil {
		return Result{}, err
	}
	return resp.Results[0], nil
}

// planFor returns the planner's decision for an ad-hoc query of numPoints
// points without executing it — the hook for tests that plan queries too
// large to run, or that must observe the plan before any execution warms a
// cache.
func (e *Engine) planFor(numPoints int, aggs []Agg, bound float64, reps int) Plan {
	return e.costModel().Choose(planner.Query{
		NumPoints:   numPoints,
		Regions:     e.regions,
		Bound:       bound,
		Repetitions: reps,
		Aggs:        aggs,
		CachedBuild: e.cachedBuildsInto(bound, nil),
		Stats:       &e.stats,
	})
}
