package serve

import "github.com/hvscan/hvscan/internal/corpus"

// Bodies renders n distinct pages of the calibrated synthetic corpus
// (page 0 of the first n domains of the newest snapshot), so offered
// documents have the size and violation mix the batch pipeline
// measures. The end-to-end benchmark's serve workload and this
// package's handler benchmarks post them.
func Bodies(seed int64, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	g := corpus.New(corpus.Config{Seed: seed, Domains: max(n, 64), MaxPages: 4})
	snap := corpus.Snapshots[len(corpus.Snapshots)-1]
	out := make([][]byte, 0, n)
	for _, d := range g.Universe() {
		out = append(out, g.PageHTML(d, snap, 0))
		if len(out) == n {
			break
		}
	}
	return out
}
