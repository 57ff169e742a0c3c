//go:build !race

package parser

import (
	"runtime"
	"testing"
)

// TestParseAllocs checks that parsing each stock model and hazard16
// allocates at most 10 bytes per source byte: the tree, with no copy of
// the token stream. (The race runtime allocates on its own, hence the
// build constraint.)
func TestParseAllocs(t *testing.T) {
	const runs, maxPerByte = 5, 10
	for name, src := range stockSources(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, errs := Parse(src, name+".lisa"); len(errs) > 0 {
				t.Fatal(errs[0])
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
		t.Logf("%s: %.1f bytes allocated per source byte", name, perByte)
		if perByte > maxPerByte {
			t.Errorf("%s: parsing allocates %.1f bytes per source byte, want at most %d", name, perByte, maxPerByte)
		}
	}
}
