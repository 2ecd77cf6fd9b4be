//go:build race

package pages

// Under the race detector every buffer handed back to the recycler is
// poisoned, so make race, make stress and make chaos run every spill,
// fault and concurrency test against poisoned memory: a reader of a
// released page then fails its checks instead of reading stale tuples.
func init() { poisonRecycled = true }
