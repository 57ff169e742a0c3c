package asm

import (
	"fmt"
	"sort"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// Program is an assembled binary image.
type Program struct {
	Origin  uint64            // word address of the first word
	Words   []uint64          // instruction words in memory order
	Width   int               // instruction word width in bits
	Symbols map[string]uint64 // label → word address
	// Lines maps word index → source line number (diagnostics, listings).
	Lines []int
}

// maxImageWords bounds the location counter on a model that declares no
// program memory. Assemble stores every address it passes as a word, so
// without a bound one .space or .org could demand more memory than the
// host has.
const maxImageWords = 1 << 20

// Assembler is the retargetable two-pass assembler generated from a model.
// NewAssembler fills it and nothing writes it afterwards.
type Assembler struct {
	m    *model.Model
	root *model.Operation
	// instruction candidates in declaration order: the members of the
	// coding root's group closure that carry syntax.
	candidates []*model.Operation
	// literals[i][j] holds the trimmed, non-empty ASCII literals of the
	// j-th syntax variant of candidates[i], upper-cased. A variant matches
	// only statements that contain each of them (see mayMatch).
	literals [][][]string
	enc      *coding.Encoder
	// end is the address the location counter may not pass: the end of
	// the program memory, or maxImageWords; endName names it in errors.
	end     uint64
	endName string
}

// NewAssembler builds an assembler from the model's coding root. When the
// model has several coding roots the first declared is used.
func NewAssembler(m *model.Model) (*Assembler, error) {
	var root *model.Operation
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			root = op
			break
		}
	}
	if root == nil {
		return nil, fmt.Errorf("model %s has no coding root; cannot derive an instruction set", m.Name)
	}
	a := &Assembler{m: m, root: root, enc: coding.NewEncoder(m)}
	names := make([]string, 0, len(root.Groups))
	for name := range root.Groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a.candidates = append(a.candidates, root.Groups[name].Members...)
	}
	if len(a.candidates) == 0 {
		return nil, fmt.Errorf("coding root %s has no instruction group", root.Name)
	}
	for _, op := range a.candidates {
		var variants [][]string
		for _, v := range op.Variants {
			if v.Syntax == nil {
				continue
			}
			var lits []string
			for _, e := range v.Syntax.Elems {
				if el, ok := e.(*ast.SyntaxString); ok {
					if lit := strings.TrimSpace(el.Text); lit != "" && isASCII(lit) {
						lits = append(lits, asciiUpper(lit))
					}
				}
			}
			variants = append(variants, lits)
		}
		a.literals = append(a.literals, variants)
	}
	a.end, a.endName = maxImageWords, "the image"
	if pm := m.ProgramMemory(); pm != nil {
		a.end, a.endName = pm.Base+pm.Size, "program memory "+pm.Name
	}
	return a, nil
}

// Root returns the coding-root operation the instruction set derives from.
func (a *Assembler) Root() *model.Operation { return a.root }

// Candidates returns the assemblable instruction operations.
func (a *Assembler) Candidates() []*model.Operation { return a.candidates }

// stripComment removes ';' and '//' comments.
func stripComment(line string) string {
	if i := strings.Index(line, ";"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

type stmt struct {
	lineNo int
	label  string
	text   string // instruction or directive text, label stripped
}

// Assemble translates assembly source into a Program. Two passes: the first
// sizes instructions and collects label addresses, the second encodes with
// the symbol table.
func (a *Assembler) Assemble(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	var stmts []stmt
	for i, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		s := stmt{lineNo: i + 1}
		// Leading label(s): ident ':'
		for {
			idx := strings.Index(line, ":")
			if idx <= 0 {
				break
			}
			cand := strings.TrimSpace(line[:idx])
			if !isIdent(cand) {
				break
			}
			if s.label != "" {
				return nil, fmt.Errorf("line %d: multiple labels on one line", s.lineNo)
			}
			s.label = cand
			line = strings.TrimSpace(line[idx+1:])
		}
		s.text = line
		stmts = append(stmts, s)
	}

	width := a.wordWidth()

	// Pass 1: addresses and symbols.
	symbols := map[string]uint64{}
	origin := uint64(0)
	originSet := false
	addr := uint64(0)
	for _, s := range stmts {
		if s.label != "" {
			if _, dup := symbols[s.label]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", s.lineNo, s.label)
			}
			symbols[s.label] = addr
		}
		if s.text == "" {
			continue
		}
		// .equ name value defines a symbol without emitting words.
		if fields := strings.Fields(s.text); len(fields) == 3 && fields[0] == ".equ" {
			v, err := parseNum(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", s.lineNo, err)
			}
			if _, dup := symbols[fields[1]]; dup {
				return nil, fmt.Errorf("line %d: duplicate symbol %q", s.lineNo, fields[1])
			}
			symbols[fields[1]] = v
			continue
		}
		n, newAddr, err := a.sizeOf(s, addr)
		if err != nil {
			return nil, err
		}
		if newAddr != nil {
			if *newAddr < addr {
				return nil, fmt.Errorf("line %d: .org %#x is below the location counter %#x", s.lineNo, *newAddr, addr)
			}
			if *newAddr > a.end {
				return nil, a.pastEnd(s.lineNo)
			}
			if !originSet && n == 0 {
				origin = *newAddr
				originSet = true
			}
			addr = *newAddr
			continue
		}
		if !originSet {
			origin = addr
			originSet = true
		}
		if n > a.end-addr {
			return nil, a.pastEnd(s.lineNo)
		}
		addr += n
	}

	// Pass 2: encode.
	prog := &Program{Origin: origin, Width: width, Symbols: symbols}
	addr = origin
	emit := func(w uint64, lineNo int) {
		prog.Words = append(prog.Words, w)
		prog.Lines = append(prog.Lines, lineNo)
		addr++
	}
	for _, s := range stmts {
		if s.text == "" {
			continue
		}
		if strings.HasPrefix(s.text, ".") {
			if err := a.directive(s, &addr, emit); err != nil {
				return nil, err
			}
			continue
		}
		in, err := a.MatchStatement(s.text, symbols)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", s.lineNo, err)
		}
		word, err := a.enc.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", s.lineNo, err)
		}
		emit(word.Uint(), s.lineNo)
	}
	return prog, nil
}

// pastEnd reports a statement that moves the location counter past a.end.
func (a *Assembler) pastEnd(lineNo int) error {
	return fmt.Errorf("line %d: location counter passes the end of %s at %#x", lineNo, a.endName, a.end)
}

// sizeOf computes the word count of a statement for pass 1; directives that
// move the location counter return the new address instead.
func (a *Assembler) sizeOf(s stmt, addr uint64) (uint64, *uint64, error) {
	if !strings.HasPrefix(s.text, ".") {
		return 1, nil, nil // every instruction is one word (≤64-bit codings)
	}
	fields := strings.Fields(s.text)
	switch fields[0] {
	case ".org":
		if len(fields) != 2 {
			return 0, nil, fmt.Errorf("line %d: .org needs one operand", s.lineNo)
		}
		v, err := parseNum(fields[1])
		if err != nil {
			return 0, nil, fmt.Errorf("line %d: %v", s.lineNo, err)
		}
		return 0, &v, nil
	case ".word":
		n := uint64(len(fields) - 1)
		if n == 0 {
			return 0, nil, fmt.Errorf("line %d: .word needs operands", s.lineNo)
		}
		return n, nil, nil
	case ".space":
		if len(fields) != 2 {
			return 0, nil, fmt.Errorf("line %d: .space needs one operand", s.lineNo)
		}
		v, err := parseNum(fields[1])
		if err != nil {
			return 0, nil, fmt.Errorf("line %d: %v", s.lineNo, err)
		}
		return v, nil, nil
	case ".equ":
		return 0, nil, nil // handled by the symbol pass
	default:
		return 0, nil, fmt.Errorf("line %d: unknown directive %s", s.lineNo, fields[0])
	}
}

// directive executes a directive in pass 2.
func (a *Assembler) directive(s stmt, addr *uint64, emit func(uint64, int)) error {
	fields := strings.Fields(s.text)
	switch fields[0] {
	case ".org":
		v, _ := parseNum(fields[1])
		// Pad with zero words if moving forward within the image.
		for *addr < v {
			emit(0, s.lineNo)
		}
		*addr = v
		return nil
	case ".word":
		for _, f := range fields[1:] {
			v, err := parseNum(strings.TrimSuffix(f, ","))
			if err != nil {
				return fmt.Errorf("line %d: %v", s.lineNo, err)
			}
			emit(v, s.lineNo)
		}
		return nil
	case ".space":
		v, _ := parseNum(fields[1])
		for i := uint64(0); i < v; i++ {
			emit(0, s.lineNo)
		}
		return nil
	case ".equ":
		if len(fields) != 3 {
			return fmt.Errorf("line %d: .equ needs a name and a value", s.lineNo)
		}
		return nil // defined in pass 1
	}
	return fmt.Errorf("line %d: unknown directive %s", s.lineNo, fields[0])
}

// MatchStatement matches one instruction statement and returns its bound
// instance. symbols may be nil when no symbolic operands occur.
func (a *Assembler) MatchStatement(text string, symbols map[string]uint64) (*model.Instance, error) {
	if in, err := a.match(text, symbols, true); err == nil {
		return in, nil
	}
	// The literal filter skips only candidates that cannot match, but a
	// skipped candidate may fail with an error of its own before it gets
	// to the missing literal. Matching again over every candidate reports
	// the error the first failing candidate gives.
	return a.match(text, symbols, false)
}

// match tries the candidates in declaration order and returns the first
// that matches the whole statement; with filter set it skips the
// candidates mayMatch rules out.
func (a *Assembler) match(text string, symbols map[string]uint64, filter bool) (*model.Instance, error) {
	mt := &matcher{m: a.m, symbols: symbols}
	var upper string
	if filter {
		upper = asciiUpper(text)
	}
	var firstErr error
	for i, op := range a.candidates {
		if filter && !a.mayMatch(i, upper) {
			continue
		}
		st := &matchState{text: text}
		in, ok, err := mt.matchOperation(op, st)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok && st.atEnd() {
			return in, nil
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("no instruction matches %q", text)
}

// mayMatch reports whether some syntax variant of candidates[i] has all its
// literals in upper, the statement with its ASCII letters upper-cased.
// matchLiteral compares a literal with an equal-length window of the
// statement by strings.EqualFold, which for an ASCII literal holds only on
// an ASCII window equal up to ASCII case, so a variant with a literal upper
// lacks cannot match.
func (a *Assembler) mayMatch(i int, upper string) bool {
variants:
	for _, lits := range a.literals[i] {
		for _, lit := range lits {
			if !strings.Contains(upper, lit) {
				continue variants
			}
		}
		return true
	}
	return false
}

// asciiUpper upper-cases the ASCII letters of s and leaves every other
// byte as it is.
func asciiUpper(s string) string {
	i := 0
	for i < len(s) && (s[i] < 'a' || s[i] > 'z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// AssembleStatement assembles one statement directly to a word.
func (a *Assembler) AssembleStatement(text string) (uint64, error) {
	in, err := a.MatchStatement(text, nil)
	if err != nil {
		return 0, err
	}
	w, err := a.enc.Encode(in)
	if err != nil {
		return 0, err
	}
	return w.Uint(), nil
}

// wordWidth returns the instruction width implied by the root resource.
func (a *Assembler) wordWidth() int {
	if a.root.RootResource != nil {
		return a.root.RootResource.Width
	}
	return 32
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	if !isSymStart(s[0]) || s[0] == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isWordChar(s[i]) {
			return false
		}
	}
	return true
}

func parseNum(s string) (uint64, error) {
	st := &matchState{text: s}
	v, ok, err := st.number(true)
	if err != nil {
		return 0, err
	}
	if !ok || !st.atEnd() {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
