//go:build !race

package warc

const raceEnabled = false
