package sema

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/parser"
)

// TestBrokenModels loads each model in testdata/broken, one per check the
// resolver makes, and wants exactly the message in its .err file.
func TestBrokenModels(t *testing.T) {
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
			d, perrs := parser.Parse(string(src), name)
			if len(perrs) > 0 {
				t.Fatalf("parse: %v", perrs[0])
			}
			_, errs := Build("broken", d)
			if len(errs) != 1 || errs[0].Error() != strings.TrimSpace(string(want)) {
				t.Errorf("errors %v\nwant exactly %s", errs, want)
			}
		})
	}
}
