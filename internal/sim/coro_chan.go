//go:build !go1.23

package sim

// newCoro falls back to goroutines and channels where iter.Pull is
// missing (coro.go).
var newCoro = newChanCoro
