package core

// SetSlabSize forces the pipelined driver's slab size for the external
// parity suites and returns the function that restores it.
func SetSlabSize(n int) (restore func()) {
	prev := slabSize
	slabSize = n
	return func() { slabSize = prev }
}

// SlabBalance reports slabs taken from the pools and not yet returned.
func SlabBalance() int64 { return slabBalance.Load() }
