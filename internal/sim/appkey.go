package sim

import (
	"math"
	"strconv"

	"ahq/internal/trace"
)

// Canonical cache-key serialisation of engine inputs, for callers that key
// work on whole node configurations — most importantly the fleet engine's
// node-outcome cache (internal/cluster), whose key must cover every input
// a node simulation reads. Floats are encoded by their IEEE-754 bit
// patterns (two configurations key equal exactly when a simulation would
// compute on identical values), strings length-prefixed so adjacent fields
// cannot alias.

// appendBits serialises a float by its IEEE-754 bit pattern.
func appendBits(b []byte, v float64) []byte {
	b = strconv.AppendUint(b, math.Float64bits(v), 16)
	return append(b, ',')
}

// appendInt serialises an integer in decimal.
func appendInt(b []byte, v int) []byte {
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ',')
}

// AppendKeyFloat appends one float's bit-pattern encoding to b.
func AppendKeyFloat(b []byte, v float64) []byte { return appendBits(b, v) }

// AppendKeyInt appends one integer's encoding to b.
func AppendKeyInt(b []byte, v int) []byte { return appendInt(b, v) }

// AppendKeyInt64 appends one 64-bit integer's encoding to b.
func AppendKeyInt64(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v, 10)
	return append(b, ',')
}

// AppendKeyString appends a length-prefixed string encoding to b.
func AppendKeyString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ',')
}

// AppendTunablesKey appends the canonical encoding of every contention
// tunable to b.
func AppendTunablesKey(b []byte, t Tunables) []byte {
	for _, v := range [...]float64{
		t.SwitchOverhead, t.PollutionOverhead, t.WarmupMs, t.WarmupMissBoost,
		t.MinBWSatisfaction, t.RefWays, t.TimesliceMs, t.DispatchDelayCapMs,
		t.BatchDrag,
	} {
		b = appendBits(b, v)
	}
	return b
}

// AppendAppKey appends one application configuration's canonical encoding
// to b: the workload model (via its own AppendKey — only the workload
// package sees all of its state), the closed-loop parameters, and the load
// profile. It reports ok=false when the configuration is not
// key-serialisable — a load profile that does not implement trace.Keyed —
// in which case the returned slice must not be used as a key (callers
// treat such configurations as uncacheable rather than guessing).
func AppendAppKey(b []byte, a AppConfig) (_ []byte, ok bool) {
	switch {
	case a.LC != nil:
		b = append(b, 'L')
		b = a.LC.AppendKey(b)
	case a.BE != nil:
		b = append(b, 'B')
		b = a.BE.AppendKey(b)
	default:
		b = append(b, 'N', ',')
	}
	b = appendInt(b, a.ClosedLoopUsers)
	b = appendBits(b, a.ThinkTimeMs)
	switch ld := a.Load.(type) {
	case nil:
		b = append(b, 'n', ',')
	case trace.Keyed:
		b = ld.AppendLoadKey(b)
	default:
		return b, false
	}
	return b, true
}
