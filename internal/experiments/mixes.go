package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/clite"
	"ahq/internal/sched/parties"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// lcAt builds one LC application at a constant load fraction.
func lcAt(name string, load float64) sim.AppConfig {
	app := workload.MustLC(name)
	return sim.AppConfig{LC: &app, Load: trace.Constant(load)}
}

// lcTrace builds one LC application driven by a load trace.
func lcTrace(name string, ld trace.Load) sim.AppConfig {
	app := workload.MustLC(name)
	return sim.AppConfig{LC: &app, Load: ld}
}

// beApp builds one BE application.
func beApp(name string) sim.AppConfig {
	app := workload.MustBE(name)
	return sim.AppConfig{BE: &app}
}

// StrategyFactory builds a fresh strategy instance (strategies are stateful,
// so sweeps must not share them across runs).
type StrategyFactory struct {
	Name string
	New  func(seed int64) sched.Strategy
}

// AllStrategies returns the five strategies of the evaluation in the
// paper's presentation order.
func AllStrategies() []StrategyFactory {
	return []StrategyFactory{
		{"unmanaged", func(int64) sched.Strategy { return static.Unmanaged{} }},
		{"lc-first", func(int64) sched.Strategy { return static.LCFirst{} }},
		{"parties", func(int64) sched.Strategy { return parties.Default() }},
		{"clite", func(seed int64) sched.Strategy {
			cfg := clite.DefaultConfig()
			cfg.Seed = seed
			return clite.New(cfg)
		}},
		{"arq", func(int64) sched.Strategy { return arq.Default() }},
	}
}

// StrategyByName returns one factory.
func StrategyByName(name string) (StrategyFactory, error) {
	for _, f := range AllStrategies() {
		if f.Name == name {
			return f, nil
		}
	}
	return StrategyFactory{}, fmt.Errorf("experiments: unknown strategy %q", name)
}

// horizons returns (warmupMs, durationMs) for the run mode.
func horizons(cfg RunConfig) (float64, float64) {
	if cfg.Quick {
		return 2_000, 6_000
	}
	return 5_000, 20_000
}

// runMix builds an engine for the spec and applications and drives it under
// the factory's strategy.
func runMix(cfg RunConfig, spec machine.Spec, apps []sim.AppConfig, f StrategyFactory, opts core.Options) (*core.Result, error) {
	engine, err := sim.New(sim.Config{Spec: spec, Seed: cfg.Seed, Apps: apps})
	if err != nil {
		return nil, err
	}
	// Apply the run mode's horizons only when the caller set neither; a
	// custom epoch alone (e.g. a monitoring-interval sweep) must not make
	// the run silently ignore cfg.Quick.
	if opts.WarmupMs == 0 && opts.DurationMs == 0 {
		warm, dur := horizons(cfg)
		opts.WarmupMs, opts.DurationMs = warm, dur
	}
	res, err := core.Run(engine, f.New(cfg.Seed), opts)
	engine.Release()
	return res, err
}

// standardMix is the paper's primary collocation: Xapian (variable load),
// Moses and Img-dnn (fixed loads), plus one BE application.
func standardMix(xapianLoad, mosesLoad, imgLoad float64, be string) []sim.AppConfig {
	return []sim.AppConfig{
		lcAt("xapian", xapianLoad),
		lcAt("moses", mosesLoad),
		lcAt("img-dnn", imgLoad),
		beApp(be),
	}
}

// fmtPct renders a ratio as a percentage string.
func fmtPct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// fmtMs renders a latency.
func fmtMs(v float64) string { return fmt.Sprintf("%.2f", v) }
