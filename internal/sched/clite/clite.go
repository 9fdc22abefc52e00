// Package clite reproduces CLITE (Patel & Tiwari, HPCA 2020): a strict
// resource-isolation scheduler that searches the partitioning space online
// with Bayesian optimisation. Each monitoring interval it scores the
// partitioning that was just in force (QoS satisfaction of the LC
// applications first, best-effort throughput second), adds the observation
// to a Gaussian-process model, and either explores the candidate
// partitioning with the highest expected improvement or exploits the best
// one found. A shift in load makes the exploited configuration start
// violating, which triggers a model reset and re-exploration.
package clite

import (
	"math"
	"math/rand"

	"ahq/internal/bayesopt"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

// Config tunes the CLITE controller.
type Config struct {
	// InitSamples is the number of random partitionings evaluated before
	// the GP drives the search.
	InitSamples int
	// Budget is the maximum number of observations before the controller
	// switches to pure exploitation.
	Budget int
	// Candidates is the size of the random candidate pool ranked by
	// expected improvement each step.
	Candidates int
	// MinEI stops exploration early once the best expected improvement
	// falls below it.
	MinEI float64
	// StaleAfter is the number of consecutive regressed epochs during
	// exploitation that triggers a model reset. An epoch counts as
	// regressed when its score falls well below the best the model ever
	// observed — the signature of a load shift that made the model stale.
	// (Merely violating QoS does not count: when no partitioning is
	// feasible, the best and current scores agree and resetting would
	// thrash.)
	StaleAfter int
	// Seed makes the random search reproducible.
	Seed int64
}

// DefaultConfig returns the parameters used in the evaluation.
func DefaultConfig() Config {
	return Config{InitSamples: 5, Budget: 18, Candidates: 200, MinEI: 1e-3, StaleAfter: 3, Seed: 1}
}

// Strategy is the CLITE controller. Create with New.
type Strategy struct {
	cfg  Config
	rng  *rand.Rand
	opt  *bayesopt.Optimizer
	apps []sched.AppSpec
	spec machine.Spec

	current    []int // the partitioning in force, flat encoding
	exploiting bool
	staleRuns  int
	// infeasible is set when the node has fewer units of some resource
	// than applications: strict per-application partitioning (CLITE's
	// search space) does not exist, so the controller holds the fallback
	// allocation from machine.EvenPartition.
	infeasible bool

	// Candidate-pool scratch, reused across decisions. candMem/ptMem back
	// the per-candidate configs and GP points; cands/pts are the slice
	// headers handed to Suggest. Only the chosen candidate escapes a
	// decision (copied), so the pool is safe to overwrite next time.
	candMem []int
	ptMem   []float64
	cands   [][]int
	pts     [][]float64
}

// New returns a CLITE controller.
func New(cfg Config) *Strategy {
	if cfg.InitSamples == 0 {
		cfg = DefaultConfig()
	}
	return &Strategy{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements sched.Strategy.
func (s *Strategy) Name() string { return "clite" }

// Init implements sched.Strategy: an even strict partitioning, which is
// also the first observation of the search.
func (s *Strategy) Init(spec machine.Spec, apps []sched.AppSpec) machine.Allocation {
	s.spec = spec
	s.apps = apps
	s.infeasible = false
	opt, err := bayesopt.NewOptimizer(s.dim())
	if err != nil {
		// A pathological dimension (no applications, or a solver the model
		// cannot be built for) must degrade, not crash the controller:
		// without a model there is nothing to search, so hold the fallback
		// partition for the whole run (DESIGN.md §7).
		s.opt = nil
		s.infeasible = true
	} else {
		s.opt = opt
	}
	s.exploiting = false
	s.staleRuns = 0
	for r := 0; r < machine.NumResources; r++ {
		if spec.Capacity(machine.Resource(r)) < len(apps) {
			s.infeasible = true
		}
	}
	alloc := machine.EvenPartition(spec, sched.LCNamesOf(apps), sched.BENamesOf(apps))
	s.current = s.encodeAlloc(alloc)
	return alloc
}

// Decide implements sched.Strategy.
func (s *Strategy) Decide(t sched.Telemetry, current machine.Allocation) machine.Allocation {
	if s.infeasible || s.opt == nil {
		return current
	}
	score, _ := s.objective(t)
	_, bestScore, bestErr := s.opt.Best()
	if err := s.opt.Observe(s.point(s.current), score); err != nil {
		return current // singular model this step; keep the allocation
	}

	if s.exploiting {
		regressed := bestErr == nil && score < 0.8*bestScore
		if regressed {
			s.staleRuns++
			if s.staleRuns >= s.cfg.StaleAfter {
				// The workload shifted; the model is stale.
				s.opt.Reset()
				s.exploiting = false
				s.staleRuns = 0
				// Re-seed the search with the current point's score.
				_ = s.opt.Observe(s.point(s.current), score)
			}
		} else {
			s.staleRuns = 0
		}
		if s.exploiting {
			return current
		}
	}

	next := s.nextConfig()
	if next == nil {
		s.exploiting = true
		return current
	}
	s.current = next
	return s.decodeAlloc(next)
}

// nextConfig picks the next partitioning to evaluate, or nil to exploit the
// best-known one (in which case the caller keeps the current allocation if
// it already is the best; otherwise we move to the best).
func (s *Strategy) nextConfig() []int {
	n := s.opt.Len()
	if n < s.cfg.InitSamples {
		return s.initialConfig(n)
	}
	if n >= s.cfg.Budget {
		return s.bestConfig()
	}
	// Half of the candidate pool is global (random partitionings), half is
	// local (small perturbations of the best configuration found so far);
	// BO over resource partitionings converges much faster with a local
	// neighbourhood in the pool.
	cfgLen := machine.NumResources * s.nApps()
	dim := s.dim()
	if cap(s.candMem) < s.cfg.Candidates*cfgLen {
		s.candMem = make([]int, s.cfg.Candidates*cfgLen)
		s.ptMem = make([]float64, s.cfg.Candidates*dim)
		s.cands = make([][]int, 0, s.cfg.Candidates)
		s.pts = make([][]float64, 0, s.cfg.Candidates)
	}
	cands := s.cands[:0]
	pts := s.pts[:0]
	var best []int
	if x, _, err := s.opt.Best(); err == nil {
		best = s.unpoint(x)
	}
	for i := 0; i < s.cfg.Candidates; i++ {
		c := s.candMem[i*cfgLen : (i+1)*cfgLen : (i+1)*cfgLen]
		if best != nil && i%2 == 0 {
			s.perturbInto(c, best)
		} else {
			s.randomConfigInto(c)
		}
		cands = append(cands, c)
		pts = append(pts, s.pointInto(s.ptMem[i*dim:i*dim:(i+1)*dim], c))
	}
	s.cands, s.pts = cands, pts
	idx, ei, err := s.opt.Suggest(pts)
	if err != nil || idx < 0 {
		return s.randomConfig()
	}
	if ei < s.cfg.MinEI {
		return s.bestConfig()
	}
	// The winner outlives the pool (it becomes s.current); copy it out.
	return append([]int(nil), cands[idx]...)
}

// bestConfig switches to exploitation and returns the best observed
// partitioning (flagging the switch in the receiver).
func (s *Strategy) bestConfig() []int {
	s.exploiting = true
	x, _, err := s.opt.Best()
	if err != nil {
		return s.randomConfig()
	}
	return s.unpoint(x)
}

// objective scores an epoch: when every LC application meets its target the
// score is 1 plus the mean normalised BE IPC (maximising BE throughput);
// otherwise it is the product of the LC applications' QoS satisfaction
// ratios, which lies in [0,1) and steers the search back to feasibility.
func (s *Strategy) objective(t sched.Telemetry) (score float64, violating bool) {
	sat := 1.0
	for _, w := range t.LCApps() {
		if math.IsNaN(w.P95Ms) {
			continue
		}
		if w.P95Ms > w.Spec.QoSTargetMs {
			violating = true
		}
		sat *= math.Min(1, w.Spec.QoSTargetMs/w.P95Ms)
	}
	if violating {
		return sat, true
	}
	be := t.BEApps()
	if len(be) == 0 {
		return 1 + sat, false
	}
	sum := 0.0
	for _, w := range be {
		if w.Spec.SoloIPC > 0 {
			sum += w.IPC / w.Spec.SoloIPC
		}
	}
	return 1 + sum/float64(len(be)), false
}

// --- partitioning encoding ---------------------------------------------

// nApps returns the number of partitions (one per application).
func (s *Strategy) nApps() int { return len(s.apps) }

// dim is the GP dimensionality: per-application resource shares, last
// application implied.
func (s *Strategy) dim() int {
	d := machine.NumResources * (s.nApps() - 1)
	if d < 1 {
		d = 1
	}
	return d
}

// initialConfig returns the i-th bootstrap sample. Like CLITE's structured
// initialisation, the first samples cover characteristic corners of the
// space — LC-weighted splits at increasing intensity and one big-LC-app
// probe per application — rather than uniform noise, which anchors the GP
// where feasible configurations live. Later bootstrap indices fall back to
// random.
func (s *Strategy) initialConfig(i int) []int {
	lcIdx := make([]int, 0, len(s.apps))
	for k, a := range s.apps {
		if a.Class == workload.LC {
			lcIdx = append(lcIdx, k)
		}
	}
	switch {
	case i == 0:
		// The even partition is already observed as the Init allocation,
		// so probe a mildly LC-weighted split first.
		return s.weightedConfig(lcIdx, 2)
	case i == 1:
		return s.weightedConfig(lcIdx, 4)
	case i-2 < len(lcIdx):
		// One probe per LC application: give it half of everything.
		return s.appHeavyConfig(lcIdx[i-2])
	default:
		return s.randomConfig()
	}
}

// weightedConfig gives every LC application `weight` shares per BE share.
func (s *Strategy) weightedConfig(lcIdx []int, weight int) []int {
	n := s.nApps()
	cfg := make([]int, machine.NumResources*n)
	isLC := make([]bool, n)
	for _, k := range lcIdx {
		isLC[k] = true
	}
	for r := 0; r < machine.NumResources; r++ {
		total := s.spec.Capacity(machine.Resource(r))
		shares := 0
		for a := 0; a < n; a++ {
			if isLC[a] {
				shares += weight
			} else {
				shares++
			}
		}
		left := total
		for a := 0; a < n; a++ {
			w := 1
			if isLC[a] {
				w = weight
			}
			v := total * w / shares
			if v < 1 {
				v = 1
			}
			if a == n-1 {
				v = left
			}
			if v > left-(n-1-a) { // leave floors for the rest
				v = left - (n - 1 - a)
			}
			cfg[r*n+a] = v
			left -= v
		}
	}
	return cfg
}

// appHeavyConfig gives application `heavy` half of every resource and
// splits the rest evenly.
func (s *Strategy) appHeavyConfig(heavy int) []int {
	n := s.nApps()
	cfg := make([]int, machine.NumResources*n)
	for r := 0; r < machine.NumResources; r++ {
		total := s.spec.Capacity(machine.Resource(r))
		big := total / 2
		if big < 1 {
			big = 1
		}
		rest := total - big
		others := n - 1
		left := rest
		for a := 0; a < n; a++ {
			if a == heavy {
				cfg[r*n+a] = big
				continue
			}
			v := rest / others
			if v < 1 {
				v = 1
			}
			if left-v < others-1 { // keep floors available
				v = 1
			}
			cfg[r*n+a] = v
			left -= v
		}
		// Re-balance any rounding surplus onto the heavy application.
		sum := 0
		for a := 0; a < n; a++ {
			sum += cfg[r*n+a]
		}
		cfg[r*n+heavy] += total - sum
	}
	return cfg
}

// randomConfig draws a random integer partitioning with every application
// holding at least one unit of each resource.
func (s *Strategy) randomConfig() []int {
	cfg := make([]int, machine.NumResources*s.nApps())
	s.randomConfigInto(cfg)
	return cfg
}

// randomConfigInto is randomConfig writing into a caller-provided config.
func (s *Strategy) randomConfigInto(cfg []int) {
	n := s.nApps()
	for r := 0; r < machine.NumResources; r++ {
		total := s.spec.Capacity(machine.Resource(r))
		randomPartitionInto(s.rng, total, cfg[r*n:(r+1)*n])
	}
}

// perturbInto writes into out a copy of cfg with one to three random
// resource units moved between random partitions, respecting the 1-unit
// floors.
func (s *Strategy) perturbInto(out, cfg []int) {
	n := s.nApps()
	copy(out, cfg)
	moves := 1 + s.rng.Intn(3)
	for m := 0; m < moves; m++ {
		r := s.rng.Intn(machine.NumResources)
		from := s.rng.Intn(n)
		to := s.rng.Intn(n)
		if from == to || out[r*n+from] <= 1 {
			continue
		}
		out[r*n+from]--
		out[r*n+to]++
	}
}

// randomPartitionInto splits total units over the bins of parts, each at
// least 1, by dealing the surplus with uniformly random bin choices. The
// candidate loop partitions straight into the config it is building.
func randomPartitionInto(rng *rand.Rand, total int, parts []int) {
	n := len(parts)
	for i := range parts {
		parts[i] = 1
	}
	for u := n; u < total; u++ {
		parts[rng.Intn(n)]++
	}
}

// point normalises a flat config into [0,1]^dim for the GP (dropping the
// last application's implied shares).
func (s *Strategy) point(cfg []int) []float64 {
	return s.pointInto(make([]float64, 0, s.dim()), cfg)
}

// pointInto is point appending into a caller-provided buffer (len 0, cap
// at least dim()).
func (s *Strategy) pointInto(pt []float64, cfg []int) []float64 {
	n := s.nApps()
	for r := 0; r < machine.NumResources; r++ {
		total := s.spec.Capacity(machine.Resource(r))
		for i := 0; i < n-1; i++ {
			pt = append(pt, float64(cfg[r*n+i])/float64(total))
		}
	}
	if len(pt) == 0 {
		pt = append(pt, 1)
	}
	return pt
}

// unpoint converts a GP point back to the nearest valid integer config:
// every application keeps at least one unit and each resource sums exactly
// to the node's capacity (the last application absorbs rounding, and the
// first applications are trimmed if the floors would overcommit).
func (s *Strategy) unpoint(x []float64) []int {
	n := s.nApps()
	cfg := make([]int, machine.NumResources*n)
	k := 0
	for r := 0; r < machine.NumResources; r++ {
		total := s.spec.Capacity(machine.Resource(r))
		budget := total - 1 // reserve the last application's floor
		for i := 0; i < n-1; i++ {
			v := 1
			if k < len(x) {
				v = int(math.Round(x[k] * float64(total)))
			}
			k++
			if v < 1 {
				v = 1
			}
			if max := budget - (n - 2 - i); v > max { // leave floors for the rest
				v = max
			}
			cfg[r*n+i] = v
			budget -= v
		}
		cfg[r*n+n-1] = budget + 1
	}
	return cfg
}

// decodeAlloc turns a flat config into a strict-isolation allocation.
func (s *Strategy) decodeAlloc(cfg []int) machine.Allocation {
	n := s.nApps()
	alloc := machine.Allocation{Regions: make([]machine.Region, 0, n)}
	for i, a := range s.apps {
		alloc.Regions = append(alloc.Regions, machine.Region{
			Name:    "iso:" + a.Name,
			Kind:    machine.Isolated,
			Cores:   cfg[int(machine.Cores)*n+i],
			Ways:    cfg[int(machine.LLCWays)*n+i],
			BWUnits: cfg[int(machine.MemBW)*n+i],
			Apps:    []string{a.Name},
		})
	}
	return alloc
}

// encodeAlloc flattens a strict-isolation allocation back to a config.
func (s *Strategy) encodeAlloc(a machine.Allocation) []int {
	n := s.nApps()
	cfg := make([]int, machine.NumResources*n)
	for i, app := range s.apps {
		g := a.IsolatedRegionOf(app.Name)
		if g == nil {
			continue
		}
		cfg[int(machine.Cores)*n+i] = g.Cores
		cfg[int(machine.LLCWays)*n+i] = g.Ways
		cfg[int(machine.MemBW)*n+i] = g.BWUnits
	}
	return cfg
}

var _ sched.Strategy = (*Strategy)(nil)
