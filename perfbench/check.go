package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/workload"
)

// Output checks. Every operation checks the invariants below; on the seeds
// recorded in digests.json it also compares a digest of every simulated
// statistic (float bits), which a change that only speeds the program up
// must leave identical. The model has no hardware reference, so no
// accuracy figure is given: these checks pin behaviour, not fidelity.

// digester hashes simulated statistics bit-exactly.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digester) f(v float64) { d.u(math.Float64bits(v)) }
func (d *digester) i(v int)     { d.u(uint64(v)) }
func (d *digester) b(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}
func (d *digester) s(v string) {
	d.i(len(v))
	d.h.Write([]byte(v))
}

// digestCore covers every run-level statistic of a controlled run.
func digestCore(r *core.Result) uint64 {
	d := newDigester()
	d.s(r.Strategy)
	for _, v := range []float64{r.MeanELC, r.MeanEBE, r.MeanES, r.RunELC, r.RunEBE, r.RunES, r.Yield} {
		d.f(v)
	}
	d.i(r.Epochs)
	d.i(r.Adjustments)
	d.i(r.TotalViolationEpochs)
	d.i(r.DegradedEpochs)
	d.i(len(r.Incidents))
	d.s(r.FinalAllocation.String())
	for _, a := range r.Apps {
		d.s(a.Spec.Name)
		d.f(a.MeanP95Ms)
		d.i(a.ViolationEpochs)
		d.i(a.Completed)
		d.i(a.Dropped)
		d.f(a.MeanIPC)
		d.f(a.LCSample.IdealMs)
		d.f(a.LCSample.MeasuredMs)
		d.f(a.LCSample.TargetMs)
		d.f(a.BESample.SoloIPC)
		d.f(a.BESample.MeasuredIPC)
	}
	return d.h.Sum64()
}

// digestCluster covers the fleet aggregates and every node summary. Cache
// counters are left out: they describe how the result was computed.
func digestCluster(r *cluster.Result) uint64 {
	d := newDigester()
	for _, v := range []float64{r.GlobalELC, r.GlobalEBE, r.GlobalES, r.GlobalYield, r.MeanRecoveryEpochs} {
		d.f(v)
	}
	d.b(r.YieldDefined)
	for _, v := range []int{r.TotalViolationEpochs, r.MeasuredEpochs, r.LCAppEpochs,
		r.Evictions, r.Replacements, r.Abandoned,
		r.Stats.FailedNodes, r.Stats.DownEpochs, r.Stats.Evictions} {
		d.i(v)
	}
	for _, s := range r.Summaries {
		d.i(s.Node)
		for _, v := range []float64{s.ELC, s.EBE, s.ES, s.Yield} {
			d.f(v)
		}
		for _, v := range []int{s.LCApps, s.BEApps, s.ViolationEpochs, s.Epochs, s.Incidents, s.DownEpochs, s.Evictions} {
			d.i(v)
		}
		d.b(s.Failed)
	}
	return d.h.Sum64()
}

// unitInterval reports whether v is a valid entropy or ratio.
func unitInterval(v float64) bool { return v >= 0 && v <= 1 }

// checkNode verifies one healthy node run: entropies in [0,1], the
// measured epoch count matching the horizon, every LC application under
// load completing requests, and no incidents.
func checkNode(r *core.Result, epochs int) error {
	for _, e := range []struct {
		name string
		v    float64
	}{{"mean E_LC", r.MeanELC}, {"mean E_BE", r.MeanEBE}, {"mean E_S", r.MeanES},
		{"run E_LC", r.RunELC}, {"run E_BE", r.RunEBE}, {"run E_S", r.RunES}, {"yield", r.Yield}} {
		if !unitInterval(e.v) {
			return fmt.Errorf("%s = %v outside [0,1]", e.name, e.v)
		}
	}
	if r.Epochs != epochs {
		return fmt.Errorf("%d measured epochs, horizon has %d", r.Epochs, epochs)
	}
	for _, a := range r.Apps {
		if a.Spec.Class == workload.LC && a.Completed == 0 {
			return fmt.Errorf("LC app %s completed no requests", a.Spec.Name)
		}
	}
	if len(r.Incidents) != 0 || r.DegradedEpochs != 0 {
		return fmt.Errorf("healthy run reported %d incidents, %d degraded epochs", len(r.Incidents), r.DegradedEpochs)
	}
	return nil
}

// fleetVictims lists, for a plan resolved exactly as cluster.Run resolves
// it, which nodes crash at some epoch and which the plan touches at all.
type fleetVictims struct {
	crashed, touched []bool
	crashes          int
}

func resolveVictims(spec string, seed int64, nodes, epochs int) (fleetVictims, error) {
	p, err := faults.ParseFleet(spec)
	if err != nil {
		return fleetVictims{}, err
	}
	p, err = p.Resolve(seed, nodes)
	if err != nil {
		return fleetVictims{}, err
	}
	v := fleetVictims{crashed: make([]bool, nodes), touched: make([]bool, nodes)}
	for _, e := range p.Events {
		for _, n := range e.Victims {
			v.touched[n] = true
		}
	}
	for n := 0; n < nodes; n++ {
		for e := 0; e < epochs && !v.crashed[n]; e++ {
			v.crashed[n] = p.DownAt(n, e)
		}
		if v.crashed[n] {
			v.crashes++
		}
	}
	return v, nil
}

// checkFleet verifies one chaos fleet run: entropies in [0,1], crash
// victims (and only they) failed, untouched nodes ran every measured epoch
// with no incidents, and the supervisor's accounting adds up.
func checkFleet(r *cluster.Result, v fleetVictims, replace bool, measured int) error {
	for _, e := range []float64{r.GlobalELC, r.GlobalEBE, r.GlobalES, r.GlobalYield} {
		if !unitInterval(e) {
			return fmt.Errorf("fleet entropy or yield %v outside [0,1]", e)
		}
	}
	if len(r.Summaries) != len(v.crashed) {
		return fmt.Errorf("%d node summaries for %d nodes", len(r.Summaries), len(v.crashed))
	}
	if r.Stats.FailedNodes != v.crashes || v.crashes == 0 {
		return fmt.Errorf("%d failed nodes, plan crashes %d", r.Stats.FailedNodes, v.crashes)
	}
	for i, s := range r.Summaries {
		if s.Failed != v.crashed[i] {
			return fmt.Errorf("node %d failed=%v, plan crashed=%v", i, s.Failed, v.crashed[i])
		}
		if !v.touched[i] && (s.Incidents != 0 || s.Epochs != measured) {
			return fmt.Errorf("untouched node %d: %d incidents, %d of %d measured epochs", i, s.Incidents, s.Epochs, measured)
		}
	}
	if r.Evictions < r.Replacements+r.Abandoned {
		return fmt.Errorf("%d evictions < %d replacements + %d abandoned", r.Evictions, r.Replacements, r.Abandoned)
	}
	if replace != (r.Evictions > 0) {
		return fmt.Errorf("re-placement %v but %d evictions", replace, r.Evictions)
	}
	return nil
}

// recordedDigestsJSON maps workload -> seed -> per-operation digests (hex)
// of the workload's first cycle passes, one pass after another, recorded
// with -record-digests.
//
//go:embed digests.json
var recordedDigestsJSON []byte

// recordedDigests returns the recorded digests of a seed's first cycle
// passes, one list per pass; the lists are nil for a seed not recorded.
func recordedDigests(name string, seed int64, cycle int) ([][]string, error) {
	var all map[string]map[string][]string
	if err := json.Unmarshal(recordedDigestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	refs := make([][]string, cycle)
	flat := all[name][strconv.FormatInt(seed, 10)]
	if len(flat) == 0 {
		return refs, nil
	}
	if len(flat)%cycle != 0 {
		return nil, fmt.Errorf("digests.json: %d digests for %s seed %d, not a multiple of its %d passes", len(flat), name, seed, cycle)
	}
	n := len(flat) / cycle
	for k := range refs {
		refs[k] = flat[k*n : (k+1)*n]
	}
	return refs, nil
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }
