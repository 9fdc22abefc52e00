package workload

import (
	"fmt"
	"sync"
)

// The catalog instantiates the paper's nine applications. LC service-time
// parameters are calibrated (see Calibrate) so that each application's solo
// latency-load curve reproduces the paper's profile: ideal p95 TL_i0 at low
// load, the QoS threshold M_i of Table IV at the knee, and the knee at 85%
// thread-pool utilisation, which pins max load. For Xapian, Moses, Img-dnn
// and Sphinx the resulting max loads land on the paper's Table IV values
// (3400, 1800, 5300, 4.8 QPS); Masstree and Silo are documented deviations
// (their Table IV load/latency pairs are not reachable by a 4-thread queue;
// all experiments use load *fractions*, so no figure shape depends on it).
//
// Cache and memory parameters are qualitative stand-ins chosen to reproduce
// the relative pressure each benchmark is known for: Img-dnn and Masstree
// are cache-hungry, Sphinx is compute-bound, STREAM has no cache reuse and
// saturates memory bandwidth with 10 threads.

// kneeRho is the thread-pool utilisation at which the latency-load curve
// knees; 85% matches the hockey-stick position in the paper's Fig. 7.
const kneeRho = 0.85

// lcSpec bundles the catalog inputs for one LC application.
type lcSpec struct {
	threads                   int
	serviceMeanMs             float64
	idealP95Ms                float64
	qosTargetMs               float64
	cache                     CacheProfile
	cacheSens, memSens, gbpsT float64
	// terms describes the request-content skew, if any.
	terms *termSpec
}

// termSpec is the catalog form of a TermMix.
type termSpec struct {
	n          int
	skew       float64
	coldFactor float64
}

var lcCatalog = map[string]lcSpec{
	// Search engine over a Wikipedia index; queries drawn Zipfian over
	// the vocabulary — popular terms hit warm postings.
	"xapian": {4, 1.00, 2.77, 4.22, CacheProfile{8, 0.15}, 1.4, 0.7, 1.6,
		&termSpec{n: 10_000, skew: 1.2, coldFactor: 2.0}},
	// Statistical machine translation; random dialogue snippets from the
	// English-Spanish corpus, mild length skew.
	"moses": {4, 1.89, 2.80, 10.53, CacheProfile{6, 0.20}, 1.2, 0.6, 1.2,
		&termSpec{n: 2_000, skew: 1.4, coldFactor: 1.3}},
	// MNIST handwriting recognition; near-uniform sample cost.
	"img-dnn": {4, 0.64, 1.41, 3.98, CacheProfile{10, 0.10}, 1.8, 0.8, 2.2, nil},
	// In-memory key-value store driven by YCSB's Zipfian key popularity.
	"masstree": {4, 0.45, 0.70, 1.05, CacheProfile{12, 0.25}, 1.7, 0.9, 2.8,
		&termSpec{n: 100_000, skew: 1.1, coldFactor: 1.4}},
	// Speech recognition; long compute-bound requests.
	"sphinx": {4, 708, 1500, 2682, CacheProfile{4, 0.10}, 0.8, 0.4, 0.8, nil},
	// In-memory transactional database; short transactions.
	"silo": {4, 0.50, 0.85, 1.27, CacheProfile{8, 0.20}, 1.5, 0.8, 2.0, nil},
}

var beCatalog = map[string]BEApp{
	// PARSEC liquid simulation (Navier-Stokes); compute-leaning.
	"fluidanimate": {
		Name: "fluidanimate", Threads: 4, SoloIPC: 2.70,
		Cache: CacheProfile{WorkingSetWays: 6, MinMissRatio: 0.15},
		Sens:  Sensitivity{CacheSens: 0.9, MemSens: 0.6, MemGBpsPerThread: 2.0},
	},
	// PARSEC online clustering; larger working set, cache-sensitive.
	"streamcluster": {
		Name: "streamcluster", Threads: 4, SoloIPC: 1.80,
		Cache: CacheProfile{WorkingSetWays: 10, MinMissRatio: 0.30},
		Sens:  Sensitivity{CacheSens: 1.6, MemSens: 0.9, MemGBpsPerThread: 3.5},
	},
	// STREAM with 10 threads: no cache reuse, saturates memory bandwidth;
	// the paper's "severe interference" generator.
	"stream": {
		Name: "stream", Threads: 10, SoloIPC: 0.60,
		Cache: CacheProfile{WorkingSetWays: 1.5, MinMissRatio: 0.95},
		Sens:  Sensitivity{CacheSens: 0.2, MemSens: 1.2, MemGBpsPerThread: 3.6},
	},
}

// lcCache memoises the calibrated models: fitting a term mix runs a
// Monte-Carlo bisection (~25 ms per mix, over one pre-drawn sample set),
// and sweeps construct applications thousands of times — concurrently,
// since the experiment harness fans runs out over a worker pool. Each name
// calibrates exactly once per process behind a sync.Once, so racing
// callers share one model (and one read-only *TermMix) instead of
// repeating the fit.
var lcCache sync.Map // name -> *lcCacheEntry

type lcCacheEntry struct {
	once sync.Once
	app  LCApp // guarded by once
	err  error // guarded by once
}

// LCByName returns the calibrated model of one LC application. It is safe
// for concurrent use.
func LCByName(name string) (LCApp, error) {
	v, _ := lcCache.LoadOrStore(name, &lcCacheEntry{})
	e := v.(*lcCacheEntry)
	e.once.Do(func() { e.app, e.err = calibrateCatalog(name) })
	return e.app, e.err
}

// calibrateCatalog builds one LC model from its catalog entry.
func calibrateCatalog(name string) (LCApp, error) {
	s, ok := lcCatalog[name]
	if !ok {
		return LCApp{}, fmt.Errorf("workload: unknown LC app %q", name)
	}
	app, err := Calibrate(name, s.threads, s.serviceMeanMs, s.idealP95Ms, s.qosTargetMs, kneeRho)
	if err != nil {
		return LCApp{}, err
	}
	app.Cache = s.cache
	app.Sens = Sensitivity{CacheSens: s.cacheSens, MemSens: s.memSens, MemGBpsPerThread: s.gbpsT}
	if s.terms != nil {
		mix, err := NewTermMix(s.terms.n, s.terms.skew, s.terms.coldFactor)
		if err != nil {
			return LCApp{}, fmt.Errorf("workload: %s: %w", name, err)
		}
		app.Terms = mix
		if err := FitSigmaWithTerms(&app); err != nil {
			return LCApp{}, err
		}
	}
	return app, nil
}

// MustLC is LCByName but panics on unknown names; for use with the
// catalog's own constants.
func MustLC(name string) LCApp {
	app, err := LCByName(name)
	if err != nil {
		panic(err)
	}
	return app
}

// BEByName returns the model of one BE application.
func BEByName(name string) (BEApp, error) {
	app, ok := beCatalog[name]
	if !ok {
		return BEApp{}, fmt.Errorf("workload: unknown BE app %q", name)
	}
	return app, nil
}

// MustBE is BEByName but panics on unknown names.
func MustBE(name string) BEApp {
	app, err := BEByName(name)
	if err != nil {
		panic(err)
	}
	return app
}
