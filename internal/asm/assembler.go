package asm

import (
	"fmt"
	"sort"
	"strings"

	"golisa/internal/bitvec"
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
// NewAssembler fills it and nothing writes it afterwards, so one assembler
// serves concurrent callers.
type Assembler struct {
	// candidates are the instruction operations in declaration order: the
	// members of the coding root's groups, each compiled for assembly.
	candidates []*opPlan
	width      int // instruction word width in bits
	// end is the address the location counter may not pass: the end of
	// the program memory, or maxImageWords; endName names it in errors.
	end     uint64
	endName string
}

// NewAssembler builds an assembler from the model's coding root. When the
// model has several coding roots the first declared is used. It compiles
// the syntax of every operation over the bit layout of its CODING, which
// the plans of the model's decoder (coding.For) hold.
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
	a := &Assembler{width: 32}
	if root.RootResource != nil {
		a.width = root.RootResource.Width
	}
	names := make([]string, 0, len(root.Groups))
	for name := range root.Groups {
		names = append(names, name)
	}
	sort.Strings(names)
	n := len(m.OpList)
	b := &builder{m: m, dec: coding.For(m), plans: make([]opPlan, n),
		variants: make([]variant, 0, n), steps: make([]step, 0, 4*n), places: make([]place, 0, 2*n)}
	for _, op := range m.OpList {
		b.compile(op)
	}
	for _, name := range names {
		for _, op := range root.Groups[name].Members {
			a.candidates = append(a.candidates, &b.plans[op.Index])
		}
	}
	if len(a.candidates) == 0 {
		return nil, fmt.Errorf("coding root %s has no instruction group", root.Name)
	}
	a.end, a.endName = maxImageWords, "the image"
	if pm := m.ProgramMemory(); pm != nil {
		a.end, a.endName = pm.Base+pm.Size, "program memory "+pm.Name
	}
	return a, nil
}

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
	stmts := make([]stmt, 0, len(lines))
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
		if strings.HasPrefix(s.text, ".equ") {
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
	prog := &Program{Origin: origin, Width: a.width, Symbols: symbols}
	if n := addr - origin; n > 0 {
		prog.Words, prog.Lines = make([]uint64, 0, n), make([]int, 0, n)
	}
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
		word, err := a.statement(s.text, symbols)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", s.lineNo, err)
		}
		emit(word, s.lineNo)
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
			f = strings.TrimSuffix(f, ",")
			v, err := parseNum(f)
			if err != nil {
				return fmt.Errorf("line %d: %v", s.lineNo, err)
			}
			if !fits(v, a.width, false) {
				return fmt.Errorf("line %d: .word value %s does not fit in %d bits", s.lineNo, f, a.width)
			}
			emit(v&bitvec.Mask(a.width), s.lineNo)
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

// statement assembles one instruction statement to its word. symbols
// may be nil when no symbolic operands occur.
func (a *Assembler) statement(text string, symbols map[string]uint64) (uint64, error) {
	if w, err := a.match(text, symbols, true); err == nil {
		return w, nil
	}
	// The literal filter skips only candidates that cannot match, but a
	// skipped candidate may fail with an error of its own before it gets
	// to the missing literal. Matching again over every candidate reports
	// the error the first failing candidate gives.
	return a.match(text, symbols, false)
}

// match assembles text by the first candidate, in declaration order, that
// matches all of it; with filter set it skips the candidates mayMatch
// rules out. When none matches, the error is the first a candidate gave.
func (a *Assembler) match(text string, symbols map[string]uint64, filter bool) (uint64, error) {
	var st matchState
	st.text, st.symbols, st.errs = text, symbols, !filter
	var upper string
	var bytes uint64
	if filter {
		upper = text
		if hasLower(text) {
			var buf [64]byte
			upper = string(appendUpper(buf[:0], text)) // on the stack when short
		}
		bytes = byteSet(upper)
	}
	for _, c := range a.candidates {
		if filter && (c.bytes&^bytes != 0 || !c.mayMatch(upper, bytes)) {
			continue
		}
		st.pos, st.failed = 0, false
		if w, ok, err := st.op(c); ok && st.atEnd() {
			return w, err
		}
	}
	if st.err != nil {
		return 0, st.err
	}
	return 0, fmt.Errorf("no instruction matches %q", text)
}

func hasLower(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'a' && s[i] <= 'z' {
			return true
		}
	}
	return false
}

// appendUpper appends s to b with its ASCII letters upper-cased and every
// other byte as it is.
func appendUpper(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
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
	return a.statement(text, nil)
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
	st := &scan{text: s}
	v, ok, big := st.number(true)
	if big != "" {
		return 0, tooBig(big)
	}
	if !ok || !st.atEnd() {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
