// Package units holds the sanctioned conversions between the
// simulation's float64 millisecond timebase and time.Duration. Every
// quantity inside the simulator carries an explicit Ms suffix; crossing
// into wall-clock types happens only here, so the scale factor is named
// exactly once. ahqlint's unitcheck analyzer flags bare time.Duration
// conversions anywhere else in the module.
package units

import "time"

// MsToDuration converts simulation milliseconds to a wall-clock
// duration, e.g. for pacing a daemon's epoch loop.
func MsToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
