// Package queueing provides analytic M/M/c results (the Erlang-C waiting
// probability and waiting-time percentiles). The workload models are
// calibrated against these formulas, and the simulator's solo behaviour is
// validated against them in tests: an LC application with t worker threads
// on >= t cores behaves as an M/G/t queue, for which the M/M/t results are a
// close guide at the loads the paper uses.
package queueing

import (
	"errors"
	"math"
)

// ErrUnstable is returned when the offered load meets or exceeds capacity.
var ErrUnstable = errors.New("queueing: offered load >= capacity (rho >= 1)")

// ErlangC returns the probability that an arriving job must wait in an
// M/M/c queue with offered load a = lambda/mu (in Erlangs) and c servers.
func ErlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, errors.New("queueing: need at least one server")
	}
	if a < 0 {
		return 0, errors.New("queueing: offered load must be non-negative")
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1, ErrUnstable
	}
	// Iterative Erlang-B, then convert to Erlang-C; numerically stable for
	// any c.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b)), nil
}

// MMc describes a stable M/M/c queue.
type MMc struct {
	// Servers is c, the number of servers.
	Servers int
	// ArrivalRate is lambda in jobs per millisecond.
	ArrivalRate float64
	// ServiceRate is mu in jobs per millisecond per server.
	ServiceRate float64
}

// Rho returns the per-server utilisation lambda/(c*mu).
func (q MMc) Rho() float64 {
	return q.ArrivalRate / (float64(q.Servers) * q.ServiceRate)
}

// WaitProbability returns the Erlang-C probability of queueing.
func (q MMc) WaitProbability() (float64, error) {
	return ErlangC(q.Servers, q.ArrivalRate/q.ServiceRate)
}

// WaitPercentile returns the p-quantile of the queueing delay in ms
// (0 when the no-wait probability already exceeds p).
func (q MMc) WaitPercentile(p float64) (float64, error) {
	pw, err := q.WaitProbability()
	if err != nil {
		return math.Inf(1), err
	}
	if 1-pw >= p {
		return 0, nil
	}
	c := float64(q.Servers)
	return math.Log(pw/(1-p)) / (c*q.ServiceRate - q.ArrivalRate), nil
}

// MGc approximates an M/G/c queue via the Allen-Cunneen correction: the
// M/M/c waiting time scaled by (1 + CV^2)/2, where CV is the service-time
// coefficient of variation. Exact for exponential service (CV = 1), good to
// a few percent at the utilisations the evaluation uses.
type MGc struct {
	// Servers is c.
	Servers int
	// ArrivalRate is lambda in jobs per millisecond.
	ArrivalRate float64
	// MeanServiceMs is E[S].
	MeanServiceMs float64
	// ServiceCV2 is the squared coefficient of variation of S.
	ServiceCV2 float64
}

// base returns the underlying M/M/c with the same mean service.
func (q MGc) base() MMc {
	return MMc{Servers: q.Servers, ArrivalRate: q.ArrivalRate, ServiceRate: 1 / q.MeanServiceMs}
}

// Rho returns the per-server utilisation.
func (q MGc) Rho() float64 { return q.base().Rho() }

// WaitPercentile approximates the p-quantile of the queueing delay by
// scaling the M/M/c percentile with the same Allen-Cunneen factor.
func (q MGc) WaitPercentile(p float64) (float64, error) {
	w, err := q.base().WaitPercentile(p)
	if err != nil {
		return math.Inf(1), err
	}
	return w * (1 + q.ServiceCV2) / 2, nil
}

// LogNormalCV2 returns the squared coefficient of variation of a
// log-normal with the given sigma: exp(sigma^2) - 1.
func LogNormalCV2(sigma float64) float64 {
	return math.Exp(sigma*sigma) - 1
}
