package parser

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBrokenSyntax parses each source in testdata/broken, one per bound
// the lexer and parser put on outside input, and wants exactly the
// diagnostics in its .err file, one a line.
func TestBrokenSyntax(t *testing.T) {
	files, err := filepath.Glob("testdata/broken/*.lisa")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(strings.TrimSuffix(name, ".lisa"), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(f, ".lisa") + ".err")
			if err != nil {
				t.Fatal(err)
			}
			_, errs := Parse(string(src), name)
			var got strings.Builder
			for _, err := range errs {
				got.WriteString(err.Error() + "\n")
			}
			if got.String() != string(want) {
				t.Errorf("errors:\n%s\nwant:\n%s", got.String(), want)
			}
		})
	}
}
