package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ahq/internal/metrics"
)

// Calibrate derives the free parameters of an LC model from three observable
// targets, the way the paper derives them from profiling (Section V, Fig. 7):
//
//   - idealP95 is TL_i0, the p95 at low load with ample resources;
//   - qosTarget is M_i, the tail-latency threshold at the knee (Table IV);
//   - serviceMean positions the knee: max load is where the thread pool
//     reaches kneeRho utilisation, i.e. maxLoad = kneeRho*threads/serviceMean.
//
// The log-normal sigma is solved from the ratio idealP95/serviceMean:
//
//	exp(1.645*sigma - sigma^2/2) = idealP95/serviceMean
//
// which has a valid root whenever 1 < ratio < exp(1.645^2/2) ~ 3.87; outside
// that, the ideal tail cannot be produced by a log-normal with the given
// mean and Calibrate returns an error.
func Calibrate(name string, threads int, serviceMeanMs, idealP95Ms, qosTargetMs, kneeRho float64) (LCApp, error) {
	if !(serviceMeanMs < idealP95Ms && idealP95Ms < qosTargetMs) {
		return LCApp{}, fmt.Errorf("workload: calibrate %s: need mean < ideal p95 < target, got %.3g, %.3g, %.3g",
			name, serviceMeanMs, idealP95Ms, qosTargetMs)
	}
	if kneeRho <= 0 || kneeRho >= 1 {
		return LCApp{}, fmt.Errorf("workload: calibrate %s: knee utilisation %.3g outside (0,1)", name, kneeRho)
	}
	ratio := idealP95Ms / serviceMeanMs
	sigma, err := sigmaForTailRatio(ratio)
	if err != nil {
		return LCApp{}, fmt.Errorf("workload: calibrate %s: %w", name, err)
	}
	app := LCApp{
		Name:           name,
		Threads:        threads,
		ServiceMeanMs:  serviceMeanMs,
		ServiceSigma:   sigma,
		MaxLoadQPS:     kneeRho * float64(threads) / (serviceMeanMs / 1000),
		QoSTargetMs:    qosTargetMs,
		IdealP95Ms:     idealP95Ms,
		ClientQueueCap: 16 * threads,
	}
	return app, nil
}

// calibrationSeed fixes the Monte-Carlo stream used by FitSigmaWithTerms.
// The fit is part of the deterministic build of every workload catalogue
// entry, so the seed is a package-level constant rather than a config
// knob: changing it would shift every calibrated sigma and with it every
// paper table. The value is the original 0x5EED ("seed") literal, kept
// so historical outputs remain byte-identical.
const calibrationSeed int64 = 0x5EED

// FitSigmaWithTerms refits the log-normal sigma of an application that has
// a term mix attached so that the *combined* service distribution —
// log-normal times the Zipfian content factor — still has the calibrated
// ideal p95. The mix's mean factor is 1, so the service mean (and max load)
// are unchanged; only the split of variance between the log-normal and the
// content factor moves. The fit is a deterministic Monte-Carlo bisection.
//
// The Monte-Carlo stream does not depend on sigma, so it is drawn once: a
// standard normal and a term factor per sample, interleaved from one
// calibrationSeed source. Each bisection step only rescales the normals and
// takes the 95th order statistic by selection; the draws, the products and
// the selected order statistic are the ones a fresh stream and a full sort
// per step would give, so the fitted sigma is the same bit for bit.
func FitSigmaWithTerms(app *LCApp) error {
	if app.Terms == nil {
		return nil
	}
	if !(app.ServiceSigma > 0) {
		return fmt.Errorf("workload: %s: term-mix fit needs a positive starting sigma, got %.3g",
			app.Name, app.ServiceSigma)
	}
	target := app.IdealP95Ms

	const n = 20000
	rng := rand.New(rand.NewSource(calibrationSeed))
	zs := make([]float64, n)
	fs := make([]float64, n)
	for i := range zs {
		zs[i] = rng.NormFloat64()
		fs[i] = app.Terms.Sample(rng.Float64())
	}
	xs := make([]float64, n)
	k := int(0.95 * float64(n))
	p95at := func(sigma float64) float64 {
		mu := math.Log(app.ServiceMeanMs) - sigma*sigma/2
		for i := range xs {
			xs[i] = math.Exp(mu+sigma*zs[i]) * fs[i]
		}
		return metrics.OrderStat(xs, k)
	}

	if floor := p95at(0); floor > target {
		return fmt.Errorf("workload: %s: term mix alone puts p95 at %.3g, above ideal %.3g; reduce ColdFactor",
			app.Name, floor, target)
	}
	// The original sigma plus the mix undershoots when the mix is very
	// mild; widen upward until the bracket holds the root.
	lo, hi := 0.0, app.ServiceSigma
	for p95 := p95at(hi); p95 < target; p95 = p95at(hi) {
		if hi >= 3 {
			return fmt.Errorf("workload: %s: sigma %.3g with the term mix still puts p95 at %.3g, below ideal %.3g",
				app.Name, hi, p95, target)
		}
		hi *= 1.5
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if p95at(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	app.ServiceSigma = (lo + hi) / 2
	return nil
}

// sigmaForTailRatio solves exp(z*sigma - sigma^2/2) = ratio for the smaller
// root, with z the standard normal 95th percentile. The smaller root keeps
// the distribution realistic (larger roots put nearly all mass near zero).
func sigmaForTailRatio(ratio float64) (float64, error) {
	const z = 1.6448536269514722
	if ratio <= 1 {
		return 0, fmt.Errorf("tail ratio %.3g must exceed 1", ratio)
	}
	c := math.Log(ratio)
	disc := z*z - 2*c
	if disc < 0 {
		return 0, fmt.Errorf("tail ratio %.3g too large for a log-normal tail (max %.3g)",
			ratio, math.Exp(z*z/2))
	}
	return z - math.Sqrt(disc), nil
}
