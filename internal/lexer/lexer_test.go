package lexer

import (
	"strings"
	"testing"
)

// tokens scans the whole of l's input and returns every token up to and
// including EOF.
func tokens(l *Lexer) []Token {
	var ts []Token
	for {
		tok := l.Next()
		ts = append(ts, tok)
		if tok.Kind == EOF {
			return ts
		}
	}
}

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	l := New(src, "test.lisa")
	ts := tokens(l)
	for _, err := range l.Errors() {
		t.Fatalf("unexpected lex error: %v", err)
	}
	return ts
}

func TestIdentifiersAndKeywordsAreIdents(t *testing.T) {
	ts := lexAll(t, "RESOURCE pc add_d _x9 OPERATION")
	want := []string{"RESOURCE", "pc", "add_d", "_x9", "OPERATION"}
	if len(ts) != len(want)+1 {
		t.Fatalf("got %d tokens, want %d", len(ts), len(want)+1)
	}
	for i, w := range want {
		if ts[i].Kind != IDENT || ts[i].Text != w {
			t.Errorf("token %d = %v, want ident %q", i, ts[i], w)
		}
	}
	if ts[len(want)].Kind != EOF {
		t.Error("missing EOF")
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src string
		val uint64
	}{
		{"0", 0}, {"42", 42}, {"0x80000", 0x80000}, {"0xffFF", 0xffff},
		{"1_000", 1000}, {"'A'", 65}, {"'\\n'", 10},
	}
	for _, c := range cases {
		ts := lexAll(t, c.src)
		if ts[0].Kind != NUMBER || ts[0].Val != c.val {
			t.Errorf("lex(%q) = %v (val %d), want NUMBER %d", c.src, ts[0], ts[0].Val, c.val)
		}
	}
}

func TestBinaryPatterns(t *testing.T) {
	cases := []struct {
		src, text string
	}{
		{"0b0000010000", "0000010000"},
		{"0bx", "x"},
		{"0b01x1X", "01x1x"},
		{"0b1", "1"},
	}
	for _, c := range cases {
		ts := lexAll(t, c.src)
		if ts[0].Kind != BINPAT || ts[0].Text != c.text {
			t.Errorf("lex(%q) = %v, want BINPAT %q", c.src, ts[0], c.text)
		}
	}
}

func TestBinPatternFollowedByBracket(t *testing.T) {
	// coding field: index:0bx[4]
	ts := lexAll(t, "index:0bx[4]")
	kinds := []Kind{IDENT, PUNCT, BINPAT, PUNCT, NUMBER, PUNCT, EOF}
	if len(ts) != len(kinds) {
		t.Fatalf("got %d tokens: %v", len(ts), ts)
	}
	for i, k := range kinds {
		if ts[i].Kind != k {
			t.Errorf("token %d = %v, want kind %v", i, ts[i], k)
		}
	}
}

func TestStrings(t *testing.T) {
	ts := lexAll(t, `"ADD" ".D" "A\n\"q\""`)
	if ts[0].Text != "ADD" || ts[1].Text != ".D" || ts[2].Text != "A\n\"q\"" {
		t.Errorf("strings: %q %q %q", ts[0].Text, ts[1].Text, ts[2].Text)
	}
}

func TestPunctuationMaximalMunch(t *testing.T) {
	ts := lexAll(t, "== = <= << <<= .. . ... && & || |")
	want := []string{"==", "=", "<=", "<<", "<<=", "..", ".", "...", "&&", "&", "||", "|"}
	for i, w := range want {
		if !ts[i].Is(w) {
			t.Errorf("token %d = %v, want %q", i, ts[i], w)
		}
	}
}

func TestRangePunctInsideBrackets(t *testing.T) {
	ts := lexAll(t, "[0x100..0xffff]")
	want := []struct {
		kind Kind
		text string
	}{
		{PUNCT, "["}, {NUMBER, "0x100"}, {PUNCT, ".."}, {NUMBER, "0xffff"}, {PUNCT, "]"},
	}
	for i, w := range want {
		if ts[i].Kind != w.kind || ts[i].Text != w.text {
			t.Errorf("token %d = %v, want %v %q", i, ts[i], w.kind, w.text)
		}
	}
}

func TestComments(t *testing.T) {
	ts := lexAll(t, "a // line comment\nb /* block\ncomment */ c")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if !ts[i].IsIdent(w) {
			t.Errorf("token %d = %v, want %q", i, ts[i], w)
		}
	}
}

func TestPositions(t *testing.T) {
	ts := lexAll(t, "a\n  b")
	if ts[0].Pos.Line != 1 || ts[0].Pos.Col != 1 {
		t.Errorf("a at %v", ts[0].Pos)
	}
	if ts[1].Pos.Line != 2 || ts[1].Pos.Col != 3 {
		t.Errorf("b at %v", ts[1].Pos)
	}
	if got := ts[1].Pos.String(); got != "test.lisa:2:3" {
		t.Errorf("pos string %q", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{"\"unterminated", "unterminated string"},
		{"/* never closed", "unterminated block comment"},
		{"$", "unexpected character"},
		{"0x", "malformed hex"},
	}
	for _, c := range cases {
		l := New(c.src, "t")
		tokens(l)
		errs := l.Errors()
		if len(errs) == 0 {
			t.Errorf("lex(%q): expected error containing %q", c.src, c.substr)
			continue
		}
		if !strings.Contains(errs[0].Error(), c.substr) {
			t.Errorf("lex(%q) error = %v, want substring %q", c.src, errs[0], c.substr)
		}
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("", "t")
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != EOF {
			t.Fatalf("call %d: got %v, want EOF", i, tok)
		}
	}
}

func TestPaperExampleSnippet(t *testing.T) {
	// Fragment of the paper's Example 4.
	src := `
OPERATION add_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010000 0b1 0b10000 }
  SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
  BEHAVIOR { Dest = Src1 + Src2; }
}
`
	ts := lexAll(t, src)
	var binpats, strs int
	for _, tok := range ts {
		switch tok.Kind {
		case BINPAT:
			binpats++
		case STRING:
			strs++
		}
	}
	if binpats != 3 {
		t.Errorf("binpats = %d, want 3", binpats)
	}
	if strs != 4 {
		t.Errorf("strings = %d, want 4", strs)
	}
}
