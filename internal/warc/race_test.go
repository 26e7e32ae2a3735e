//go:build race

package warc

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so pooled state is rebuilt at random and allocation figures
// are not the program's.
const raceEnabled = true
