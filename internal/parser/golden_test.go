package parser

import (
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/models"
)

// mutationsPerModel is how many seeded mutations of each stock model and
// of hazard16 the parse golden records.
const mutationsPerModel = 200

// mutationBytes are the bytes a mutation may insert: every byte that
// starts a punctuation lexeme, and '$', which starts none.
const mutationBytes = "{}()[];,.:?+-*/%<>=&|^~!#@$"

// orderSource has a parser error (line 2) before a lexer error (line
// 4); Parse lists the lexer's diagnostics first.
const orderSource = `OPERATION early {
  CODING { + }
}
OPERATION late { $ }
`

// parseCase is one source the parse golden records.
type parseCase struct{ label, file, src string }

// TestParseGolden parses the stock models, hazard16, every .lisa fixture
// in the tree, orderSource and seeded mutations of the models, and
// compares each result with testdata/golden: the exact error list, or,
// for a clean parse, a SHA-256 of the AST's canonical dump (dumpAST). A
// mutation truncates the source, deletes a byte or inserts one of
// mutationBytes, at a random offset. A missing golden file is written
// from the parser under test and the test fails, so deleting one and
// re-running the test regenerates it.
func TestParseGolden(t *testing.T) {
	for name, src := range stockSources(t) {
		cases := []parseCase{{name, name + ".lisa", src}}
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(name)))))
		for i := 0; i < mutationsPerModel; i++ {
			label, mutated := mutate(rng, src)
			cases = append(cases, parseCase{fmt.Sprintf("%s/%03d %s", name, i, label), name + ".lisa", mutated})
		}
		checkParseGolden(t, name, cases)
	}

	var fixtures []string
	for _, dir := range []string{"../sema/testdata/broken", "../core/testdata/broken", "testdata/broken"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.lisa"))
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, files...)
	}
	cases := []parseCase{{"order", "order.lisa", orderSource}}
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parseCase{filepath.ToSlash(path), filepath.Base(path), string(src)})
	}
	checkParseGolden(t, "fixtures", cases)
}

// stockSources returns the source of each stock model and of hazard16
// by name.
func stockSources(t testing.TB) map[string]string {
	srcs := map[string]string{}
	for name, src := range models.All {
		srcs[name] = src
	}
	hazard16, err := os.ReadFile("../models/testdata/hazard16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	srcs["hazard16"] = string(hazard16)
	return srcs
}

// mutate changes src at one seeded random offset and says how.
func mutate(rng *rand.Rand, src string) (string, string) {
	off := rng.Intn(len(src))
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("truncate at %d", off), src[:off]
	case 1:
		return fmt.Sprintf("delete byte %d", off), src[:off] + src[off+1:]
	default:
		c := mutationBytes[rng.Intn(len(mutationBytes))]
		return fmt.Sprintf("insert %q at %d", c, off), src[:off] + string(c) + src[off:]
	}
}

// parseOutcome is the golden's record of one parse: its error lines, or
// the hash of its AST's dump when there are none.
func parseOutcome(t *testing.T, c parseCase) []string {
	d, errs := Parse(c.src, c.file)
	if len(errs) == 0 {
		h := sha256.New()
		dumpAST(h, reflect.ValueOf(d))
		return []string{fmt.Sprintf("ast %x", h.Sum(nil))}
	}
	lines := make([]string, len(errs))
	for i, err := range errs {
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("%s: error spans lines: %q", c.label, err)
		}
		lines[i] = "error " + err.Error()
	}
	return lines
}

// checkParseGolden compares the outcome of every case with
// testdata/golden/<name>.txt, where each entry is a "== label" line
// followed by the outcome's lines.
func checkParseGolden(t *testing.T, name string, cases []parseCase) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "== %s\n", c.label)
			for _, line := range parseOutcome(t, c) {
				fmt.Fprintln(&b, line)
			}
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing; wrote it", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	var label string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if l, ok := strings.CutPrefix(line, "== "); ok {
			label = l
			want[label] = []string{}
			continue
		}
		want[label] = append(want[label], line)
	}
	for _, c := range cases {
		w, ok := want[c.label]
		if !ok {
			t.Errorf("%s: no entry for %s", path, c.label)
			continue
		}
		delete(want, c.label)
		if got := parseOutcome(t, c); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: %s:\ngot  %s\nwant %s", path, c.label, strings.Join(got, "\n     "), strings.Join(w, "\n     "))
		}
	}
	stale := make([]string, 0, len(want))
	for l := range want {
		stale = append(stale, l)
	}
	sort.Strings(stale)
	for _, l := range stale {
		t.Errorf("%s: entry %s matches no source", path, l)
	}
}

// dumpAST writes a canonical dump of an AST value: each node's type, and
// every field by name, positions included, in declaration order. Nil and
// empty slices dump differently.
func dumpAST(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		if v.Kind() == reflect.Pointer {
			io.WriteString(w, v.Type().String())
		}
		dumpAST(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, v.Type().String()+"{")
		for i := 0; i < v.NumField(); i++ {
			io.WriteString(w, v.Type().Field(i).Name+": ")
			dumpAST(w, v.Field(i))
			io.WriteString(w, "; ")
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			dumpAST(w, v.Index(i))
			io.WriteString(w, ", ")
		}
		io.WriteString(w, "]")
	case reflect.String:
		io.WriteString(w, strconv.Quote(v.String()))
	case reflect.Bool:
		io.WriteString(w, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		io.WriteString(w, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		io.WriteString(w, strconv.FormatUint(v.Uint(), 10))
	default:
		panic(fmt.Sprintf("dumpAST: unhandled kind %s", v.Kind()))
	}
}
