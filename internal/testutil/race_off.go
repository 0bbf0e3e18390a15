//go:build !race

package testutil

// Race reports that the race detector is on.
const Race = false
