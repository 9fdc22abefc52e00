package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestErlangCKnownValues(t *testing.T) {
	// Textbook values: C(c, a) for offered load a Erlangs on c servers.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 0.5, 0.5},       // M/M/1: C = rho
		{2, 1.0, 1.0 / 3.0}, // classic two-server result
		{10, 8.0, 0.4092},   // tables
	}
	for _, c := range cases {
		got, err := ErlangC(c.c, c.a)
		if err != nil {
			t.Fatalf("ErlangC(%d, %g): %v", c.c, c.a, err)
		}
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ErlangC(%d, %g) = %.4f, want %.4f", c.c, c.a, got, c.want)
		}
	}
}

func TestErlangCErrors(t *testing.T) {
	if _, err := ErlangC(0, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := ErlangC(2, -1); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := ErlangC(2, 2); !errors.Is(err, ErrUnstable) {
		t.Errorf("rho=1: err = %v, want ErrUnstable", err)
	}
}

func TestErlangCProperties(t *testing.T) {
	f := func(cRaw uint8, rhoRaw uint16) bool {
		c := int(cRaw)%32 + 1
		rho := float64(rhoRaw%999) / 1000 // [0, 0.998]
		a := rho * float64(c)
		p, err := ErlangC(c, a)
		if err != nil {
			return false
		}
		if p < 0 || p > 1 {
			return false
		}
		// More servers at equal utilisation queue less.
		p2, err := ErlangC(c+1, rho*float64(c+1))
		return err == nil && p2 <= p+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMM1ClosedForms(t *testing.T) {
	q := MMc{Servers: 1, ArrivalRate: 0.5, ServiceRate: 1}
	// M/M/1: P(wait) = rho, and P(Wq > t) = rho*exp(-(mu-lambda)t), so the
	// p-quantile of the wait is ln(rho/(1-p))/(mu-lambda).
	pw, err := q.WaitProbability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw-0.5) > 1e-9 {
		t.Errorf("WaitProbability = %g, want 0.5", pw)
	}
	p95, err := q.WaitPercentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(0.5/0.05) / 0.5; math.Abs(p95-want) > 1e-9 {
		t.Errorf("WaitPercentile(0.95) = %g, want %g", p95, want)
	}
}

// TestWaitPercentileConsistentWithTail checks WaitPercentile against the
// M/M/c waiting-time tail P(Wq > t) = Pw*exp(-(c*mu-lambda)t).
func TestWaitPercentileConsistentWithTail(t *testing.T) {
	q := MMc{Servers: 4, ArrivalRate: 3.0, ServiceRate: 1}
	pw, err := q.WaitProbability()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		tp, err := q.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if tp == 0 {
			if 1-pw < p {
				t.Errorf("p=%g: percentile 0 but no-wait prob %g < p", p, 1-pw)
			}
			continue
		}
		tail := pw * math.Exp(-(4*q.ServiceRate-q.ArrivalRate)*tp)
		if math.Abs(tail-(1-p)) > 1e-9 {
			t.Errorf("p=%g: P(W > t_p) = %g, want %g", p, tail, 1-p)
		}
	}
}

func TestUnstableQueues(t *testing.T) {
	q := MMc{Servers: 2, ArrivalRate: 3, ServiceRate: 1}
	if _, err := q.WaitProbability(); !errors.Is(err, ErrUnstable) {
		t.Error("unstable WaitProbability should error")
	}
	if _, err := q.WaitPercentile(0.95); !errors.Is(err, ErrUnstable) {
		t.Error("unstable WaitPercentile should error")
	}
}

func TestRho(t *testing.T) {
	q := MMc{Servers: 4, ArrivalRate: 2, ServiceRate: 1}
	if got := q.Rho(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Rho = %g", got)
	}
}

func TestMGcReducesToMMcForExponential(t *testing.T) {
	// CV^2 = 1 (exponential service): Allen-Cunneen is exact and equals
	// the M/M/c result.
	mgc := MGc{Servers: 4, ArrivalRate: 3, MeanServiceMs: 1, ServiceCV2: 1}
	mmc := MMc{Servers: 4, ArrivalRate: 3, ServiceRate: 1}
	wg, err := mgc.WaitPercentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := mmc.WaitPercentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wg-wm) > 1e-12 {
		t.Errorf("MGc(CV2=1) p95 wait %g != MMc p95 wait %g", wg, wm)
	}
}

func TestMGcVarianceScaling(t *testing.T) {
	// Doubling (1+CV^2) doubles the wait percentiles; deterministic
	// service (CV2=0) waits half as long as exponential.
	det := MGc{Servers: 2, ArrivalRate: 1.5, MeanServiceMs: 1, ServiceCV2: 0}
	exp := MGc{Servers: 2, ArrivalRate: 1.5, MeanServiceMs: 1, ServiceCV2: 1}
	wd, err := det.WaitPercentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	we, err := exp.WaitPercentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(2*wd-we) > 1e-12 {
		t.Errorf("deterministic wait %g not half of exponential %g", wd, we)
	}
}

func TestMGcUnstable(t *testing.T) {
	q := MGc{Servers: 1, ArrivalRate: 2, MeanServiceMs: 1, ServiceCV2: 1}
	if _, err := q.WaitPercentile(0.95); !errors.Is(err, ErrUnstable) {
		t.Error("unstable MGc percentile accepted")
	}
}

func TestLogNormalCV2(t *testing.T) {
	if got := LogNormalCV2(0); got != 0 {
		t.Errorf("CV2(0) = %g", got)
	}
	// sigma = 1: CV^2 = e - 1.
	if got := LogNormalCV2(1); math.Abs(got-(math.E-1)) > 1e-12 {
		t.Errorf("CV2(1) = %g", got)
	}
}
