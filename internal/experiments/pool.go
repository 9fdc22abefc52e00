package experiments

import (
	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sim"
)

// The experiment harness is an embarrassingly parallel sweep: every row of
// every table is one independent, seed-deterministic engine + controller
// run (sim.Engine is "not safe for concurrent use" per engine, but separate
// engines share nothing mutable). The bounded worker pool itself lives in
// internal/pool — the cluster fleet engine shards over the same
// implementation — while this file binds it to the harness.

// pool bounds how many simulation jobs run simultaneously for one runner
// invocation. Results are read back in declaration order, so output is
// byte-identical at every parallelism level.
type pool struct {
	ex *workpool.Pool
}

// newPool sizes the executor from the run configuration: Parallel workers,
// or runtime.NumCPU() when Parallel <= 0 (1 disables concurrency).
func newPool(cfg RunConfig) *pool {
	return &pool{ex: workpool.New(cfg.Parallel)}
}

// future is the pending result of a submitted job, read back with wait in
// declaration order by the runners.
type future[T any] struct {
	f *workpool.Future[T]
}

// submit schedules fn on the pool and returns its future. Jobs start in
// submission order as workers free up; results are read back with wait.
func submit[T any](p *pool, fn func() (T, error)) *future[T] {
	return &future[T]{f: workpool.Submit(p.ex, fn)}
}

// wait blocks until the job finishes and returns its result.
func (f *future[T]) wait() (T, error) {
	return f.f.Wait()
}

// runMixAsync submits one runMix invocation to the pool.
func runMixAsync(p *pool, cfg RunConfig, spec machine.Spec, apps []sim.AppConfig, f StrategyFactory, opts core.Options) *future[*core.Result] {
	return submit(p, func() (*core.Result, error) {
		return runMix(cfg, spec, apps, f, opts)
	})
}
