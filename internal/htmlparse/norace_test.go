//go:build !race

package htmlparse

const raceEnabled = false
