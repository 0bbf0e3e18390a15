//go:build race

package testutil

// Race reports that the race detector is on. Allocation-count tests skip
// under it: it makes sync.Pool drop a share of what is put back, so pooled
// scratch gets reallocated at random.
const Race = true
