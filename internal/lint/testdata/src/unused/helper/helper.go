// Package helper is the other side of the unused fixture's cross-package
// reference.
package helper

// Shared is used from the fixture root.
func Shared() int { return 1 }

// Lonely is used nowhere.
func Lonely() {} // want `func Lonely is unused`
