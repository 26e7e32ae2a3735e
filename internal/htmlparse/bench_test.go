package htmlparse

import (
	"os"
	"path/filepath"
	"testing"
)

// The perf-trajectory gate (cmd/hvbench, DESIGN.md §12) runs these
// benchmarks against the checked-in BENCH_baseline.json: they measure the
// tokenizer and full parse directly over three checked-in representative
// pages, so a hot-path regression fails CI even when the full-pipeline
// benchmarks would hide it behind archive and rule-engine time.
//
//	small        ~1 KB   minimal well-formed article page, close to the
//	                     ~1.5 KB the synthetic corpus pages average
//	typical      ~48 KB  large template-generated article page, well above
//	                     the corpus average; the big page in the mix
//	pathological ~41 KB  deep nesting, attribute storms, foster parenting,
//	                     entity runs, long comments and raw text
var benchPages = []string{"small", "typical", "pathological"}

func benchPage(b *testing.B, name string) []byte {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "bench", name+".html"))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkTokenize drives the tokenizer alone (no tree construction)
// over each fixture; MB/s here is the ceiling for every downstream stage.
func BenchmarkTokenize(b *testing.B) {
	for _, name := range benchPages {
		b.Run(name, func(b *testing.B) {
			input := benchPage(b, name)
			pre, err := Preprocess(input)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(pre.Input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z := NewTokenizer(pre.Input)
				for {
					if t := z.Next(); t.Type == EOFToken {
						break
					}
				}
			}
		})
	}
}

// BenchmarkParse is the full parse (preprocess, tokenize, tree
// construction) through the public entry point, one fresh parser per
// document.
func BenchmarkParse(b *testing.B) {
	for _, name := range benchPages {
		b.Run(name, func(b *testing.B) {
			input := benchPage(b, name)
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
