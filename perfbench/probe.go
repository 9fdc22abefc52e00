package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Machine-speed probe. On a shared virtual machine the host's speed drifts
// by 10-30% over seconds to minutes as other tenants' load changes, and
// every timing of a run moves with it. The probe is a fixed computation that
// runs none of the program's code: a small tick-driven multi-server queue
// (Poisson arrivals, log-normal service draws, earliest-free-server
// dispatch, latency samples sorted for a percentile), the kind of work the
// simulator's request path does. A pass runs probeUnits units of it after
// each of its operations, outside the operations' timing, so the probe
// samples the machine in the same seconds as the pass. The pass's timings
// are then scaled by probeNominal over the probe's time per unit, so they
// read as host time on a machine where one unit takes probeNominal. A change
// to the program moves them in full; a change of the machine's speed mostly
// cancels.
const probeNominal = 300e-6 // seconds per unit

// probeTicks is the length of one probe unit in queue ticks; a percentile
// is taken every probeLatSamples completions.
const (
	probeTicks      = 200
	probeLatSamples = 1 << 14
)

type probeReq struct{ arrival, remain, notBefore float64 }

// speedProbe holds the queue's state and the probe time of the current
// pass. Its buffers are allocated once, so the program's heap does not
// change what it measures.
type speedProbe struct {
	rng         *rand.Rand
	queue, kept []probeReq
	lat         []float64
	now         float64
	acc         float64 // sum of the percentiles taken: the work's result
	elapsed     time.Duration
	units       int
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{
		rng:   rand.New(rand.NewSource(1)),
		queue: make([]probeReq, 0, 1024),
		kept:  make([]probeReq, 0, 1024),
		lat:   make([]float64, 0, probeLatSamples+256),
	}
}

// reset restarts the queue from the same state, so every pass's probe does
// the same work, and clears the probe time.
func (p *speedProbe) reset() {
	p.rng.Seed(1)
	p.queue, p.kept, p.lat = p.queue[:0], p.kept[:0], p.lat[:0]
	p.now, p.elapsed, p.units = 0, 0, 0
}

// runProbe times n units and adds them to the pass's probe time.
func (p *speedProbe) runProbe(n int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.unit()
	}
	p.elapsed += time.Since(t0)
	p.units += n
}

// scale is the factor that brings host times measured alongside the probe
// to nominal machine speed; 1 when nothing was probed.
func (p *speedProbe) scale() float64 {
	if p.units == 0 {
		return 1
	}
	return probeNominal * float64(p.units) / p.elapsed.Seconds()
}

// unit runs probeTicks ticks of an 8-server queue at about 80% load.
func (p *speedProbe) unit() {
	const servers = 8
	expNegLambda := math.Exp(-5.0) // 5 arrivals per tick
	for t := 0; t < probeTicks; t++ {
		n, prod := 0, 1.0
		for {
			prod *= p.rng.Float64()
			if prod <= expNegLambda {
				break
			}
			n++
		}
		for i := 0; i < n; i++ {
			at := p.now + p.rng.Float64()
			p.queue = append(p.queue, probeReq{
				arrival:   at,
				remain:    math.Exp(0.1 + 0.6*p.rng.NormFloat64()),
				notBefore: at + 0.05*p.rng.Float64(),
			})
		}
		var clocks [servers]float64
		for i := range clocks {
			clocks[i] = p.now
		}
		end := p.now + 1
		kept := p.kept[:0]
		qi := 0
		for ; qi < len(p.queue); qi++ {
			top, c := 0, clocks[0]
			for i := 1; i < servers; i++ {
				if clocks[i] < c {
					top, c = i, clocks[i]
				}
			}
			if c >= end {
				break
			}
			r := p.queue[qi]
			start := math.Max(c, math.Max(r.arrival, r.notBefore))
			switch {
			case start >= end:
				kept = append(kept, r)
			case r.remain <= end-start:
				clocks[top] = start + r.remain
				p.lat = append(p.lat, start+r.remain-r.arrival)
			default:
				r.remain -= end - start
				clocks[top] = end
				kept = append(kept, r)
			}
		}
		kept = append(kept, p.queue[qi:]...)
		p.queue = append(p.queue[:0], kept...)
		p.kept = kept[:0]
		p.now = end
		if len(p.lat) >= probeLatSamples {
			sort.Float64s(p.lat)
			p.acc += p.lat[len(p.lat)*95/100]
			p.lat = p.lat[:0]
		}
	}
}
