//go:build race

package hmerge

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts that rest on pooled frames mean nothing.
const raceEnabled = true
