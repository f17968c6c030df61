//go:build !race

package hmerge

const raceEnabled = false
