//go:build race

package spilly

// Under the race detector every instrumented instruction runs several times
// slower, and the codecs' byte loops, which the compression regulator times,
// tens of times slower. At 16 a slowed spill device still costs more per
// byte than the first compression level does.
func init() { raceCPUFactor = 16 }
