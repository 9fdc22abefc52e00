package entropy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Curve is an empirical E_S(resource) relation: entropy measured at a set
// of resource amounts under one scheduling strategy. Resource equivalence
// questions ("how many cores does strategy p2 save over p1 at the same
// E_S?", Section II-C) are answered by inverting such curves.
type Curve struct {
	points []Point
}

// Point is one (resource amount, entropy) measurement.
type Point struct {
	Resource float64
	ES       float64
}

// NewCurve builds a curve from measurements; points are sorted by resource
// amount. At least two points are required to interpolate.
func NewCurve(points []Point) (*Curve, error) {
	if len(points) < 2 {
		return nil, errors.New("entropy: equivalence curve needs at least two points")
	}
	ps := append([]Point(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Resource < ps[j].Resource })
	for i := 1; i < len(ps); i++ {
		//ahqlint:allow floatcmp exact duplicate detection on caller-supplied amounts, not computed values
		if ps[i].Resource == ps[i-1].Resource {
			return nil, fmt.Errorf("entropy: duplicate resource amount %.4g in curve", ps[i].Resource)
		}
	}
	return &Curve{points: ps}, nil
}

// ESAt linearly interpolates the entropy at the given resource amount,
// clamping outside the measured range.
//
//ahqlint:allow unused public API through the ahq.EquivalenceCurve alias
func (c *Curve) ESAt(resource float64) float64 {
	ps := c.points
	if resource <= ps[0].Resource {
		return ps[0].ES
	}
	if resource >= ps[len(ps)-1].Resource {
		return ps[len(ps)-1].ES
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Resource >= resource }) - 1
	a, b := ps[i], ps[i+1]
	t := (resource - a.Resource) / (b.Resource - a.Resource)
	return a.ES*(1-t) + b.ES*t
}

// ResourceFor returns the smallest resource amount at which the curve
// reaches entropy es, interpolating between measurements. Entropy decreases
// (weakly) with resources, so this inverts the curve from the high-entropy
// side. It returns an error when the curve never reaches es.
func (c *Curve) ResourceFor(es float64) (float64, error) {
	ps := c.points
	// Walk from the scarce-resource end; find the first segment that
	// crosses es going down.
	if ps[0].ES <= es {
		return ps[0].Resource, nil
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].ES <= es {
			a, b := ps[i-1], ps[i]
			//ahqlint:allow floatcmp guards the exact-zero denominator of the interpolation below
			if a.ES == b.ES {
				return b.Resource, nil
			}
			t := (a.ES - es) / (a.ES - b.ES)
			return a.Resource + t*(b.Resource-a.Resource), nil
		}
	}
	return 0, fmt.Errorf("entropy: curve never reaches E_S = %.3g (min %.3g)", es, ps[len(ps)-1].ES)
}

// Equivalence returns the resource equivalence of strategy "better" relative
// to strategy "baseline" at system entropy es: how many more resource units
// the baseline needs to match the better strategy's entropy,
// Delta R = R_baseline(es) - R_better(es). Positive values mean "better"
// saves resources.
func Equivalence(baseline, better *Curve, es float64) (float64, error) {
	rb, err := baseline.ResourceFor(es)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	rg, err := better.ResourceFor(es)
	if err != nil {
		return 0, fmt.Errorf("better: %w", err)
	}
	return rb - rg, nil
}

// MonotoneViolation returns the largest increase of entropy between
// consecutive points as resources grow (0 for a perfectly monotone curve).
// The paper's property ② requires E_S to not increase with resources;
// simulation noise permits small violations, which tests bound.
//
//ahqlint:allow unused public API through the ahq.EquivalenceCurve alias
func (c *Curve) MonotoneViolation() float64 {
	worst := 0.0
	for i := 1; i < len(c.points); i++ {
		if d := c.points[i].ES - c.points[i-1].ES; d > worst {
			worst = d
		}
	}
	return worst
}

// Min returns the smallest entropy on the curve.
//
//ahqlint:allow unused public API through the ahq.EquivalenceCurve alias
func (c *Curve) Min() float64 {
	m := math.Inf(1)
	for _, p := range c.points {
		if p.ES < m {
			m = p.ES
		}
	}
	return m
}

// Points returns a copy of the curve's points, sorted by resource amount.
//
//ahqlint:allow unused public API through the ahq.EquivalenceCurve alias
func (c *Curve) Points() []Point {
	return append([]Point(nil), c.points...)
}
