package dexasm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"nadroid/internal/apk"
	"nadroid/internal/framework"
	"nadroid/internal/ir"
	"nadroid/internal/manifest"
)

// Parse reads dexasm text into a package. The framework skeletons are
// always pre-declared, so app classes may extend them without declaring
// them in the file.
func Parse(src string) (*apk.Package, error) {
	p := &parser{src: src}
	return p.parse()
}

// parser reads src line by line in place. Its lines are those
// strings.Split(src, "\n") would list, each trimmed with
// strings.TrimSpace before use.
type parser struct {
	src string
	// off is the byte offset of the next line, past len(src) once the
	// last line has been read; pos is the number of lines read, so an
	// error names the line read last.
	off int
	pos int
	// classes are the declared classes in file order, and classLines
	// holds the line of each one's header.
	classes    []*ir.Class
	classLines []int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return errAt(p.pos, format, args...)
}

func errAt(line int, format string, args ...interface{}) error {
	return fmt.Errorf("dexasm: line %d: %s", line, fmt.Sprintf(format, args...))
}

// lineAt returns the untrimmed line of src that starts at byte offset
// off, and the offset of the line after it.
func lineAt(src string, off int) (string, int) {
	line := src[off:]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	return line, off + len(line) + 1
}

// next returns the next non-empty, non-comment line (trimmed).
func (p *parser) next() (string, bool) {
	for p.off <= len(p.src) {
		var raw string
		raw, p.off = lineAt(p.src, p.off)
		p.pos++
		if line := strings.TrimSpace(raw); !isBlank(line) {
			return line, true
		}
	}
	return "", false
}

// isBlank reports whether a trimmed line is empty or a comment.
func isBlank(line string) bool {
	return line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//")
}

// isLabel reports whether a trimmed method-body line defines a label.
func isLabel(line string) bool { return strings.HasSuffix(line, ":") }

// bodyLen counts the instruction and label lines from the cursor up to
// the next closing brace (to the end of the input when there is none),
// so a method body and its labels are allocated once at their final
// size.
func (p *parser) bodyLen() (instrs, labels int) {
	for off := p.off; off <= len(p.src); {
		var raw string
		raw, off = lineAt(p.src, off)
		switch line := strings.TrimSpace(raw); {
		case line == "}":
			return instrs, labels
		case isBlank(line):
		case isLabel(line):
			labels++
		default:
			instrs++
		}
	}
	return instrs, labels
}

// cutField returns the first field of s and what follows it, splitting
// where strings.Fields does; field is "" when s holds none.
func cutField(s string) (field, rest string) {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			return s[start:i], s[i:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// fieldsInto stores the fields strings.Fields would return for s into
// buf, as many as fit, and returns how many s has.
func fieldsInto(buf []string, s string) int {
	n := 0
	for f, rest := cutField(s); f != ""; f, rest = cutField(rest) {
		if n < len(buf) {
			buf[n] = f
		}
		n++
	}
	return n
}

func (p *parser) parse() (*apk.Package, error) {
	// Every class header holds "class ", so this count bounds the
	// number of classes the file declares.
	n := strings.Count(p.src, "class ")
	p.classes = make([]*ir.Class, 0, n)
	p.classLines = make([]int, 0, n)
	prog := ir.NewProgram()
	prog.Grow(framework.SkeletonSize() + n)
	framework.Declare(prog)
	var man *manifest.Manifest
	appName := ""

	for {
		line, ok := p.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "app "):
			appName = strings.TrimSpace(strings.TrimPrefix(line, "app "))
		case line == "manifest {":
			if appName == "" {
				return nil, p.errf("manifest before app declaration")
			}
			man = manifest.New(appName)
			if err := p.parseManifest(man); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "class "):
			if err := p.parseClass(prog, line); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected %q", line)
		}
	}
	if appName == "" {
		return nil, fmt.Errorf("dexasm: missing app declaration")
	}
	if err := p.checkAcyclic(prog); err != nil {
		return nil, err
	}
	if man == nil {
		man = manifest.New(appName)
	}
	pkg := &apk.Package{Name: appName, Program: prog, Manifest: man}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	return pkg, nil
}

func (p *parser) parseManifest(man *manifest.Manifest) error {
	for {
		line, ok := p.next()
		if !ok {
			return p.errf("unterminated manifest")
		}
		if line == "}" {
			return nil
		}
		kindName, rest := cutField(line)
		class, rest := cutField(rest)
		if class == "" {
			return p.errf("malformed manifest entry %q", line)
		}
		kind, ok := componentKindFromName(kindName)
		if !ok {
			return p.errf("unknown component kind %q", kindName)
		}
		comp := &manifest.Component{Kind: kind, Class: class, Reachable: true}
		for flag, rest := cutField(rest); flag != ""; flag, rest = cutField(rest) {
			switch flag {
			case "main":
				comp.Main = true
			case "unreachable":
				comp.Reachable = false
			default:
				return p.errf("unknown component flag %q", flag)
			}
		}
		if man.Component(comp.Class) != nil {
			return p.errf("duplicate component %s", comp.Class)
		}
		man.Add(comp)
	}
}

func (p *parser) parseClass(prog *ir.Program, header string) error {
	// class NAME extends SUPER [implements I1 I2 ...] [inner OUTER] {
	kw, rest := cutField(strings.TrimSuffix(strings.TrimSpace(header), "{"))
	name, rest := cutField(rest)
	extends, rest := cutField(rest)
	super, rest := cutField(rest)
	if super == "" || kw != "class" || extends != "extends" {
		return p.errf("malformed class header %q", header)
	}
	c := ir.NewClass(name, super)
	tok, rest := cutField(rest)
	for tok != "" {
		switch tok {
		case "implements":
			n := 0
			for name, more := cutField(rest); name != "" && name != "inner"; name, more = cutField(more) {
				n++
			}
			c.Interfaces = slices.Grow(c.Interfaces, n)
			for tok, rest = cutField(rest); tok != "" && tok != "inner"; tok, rest = cutField(rest) {
				c.Interfaces = append(c.Interfaces, tok)
			}
		case "inner":
			if c.Outer, rest = cutField(rest); c.Outer == "" {
				return p.errf("inner without outer class")
			}
			tok, rest = cutField(rest)
		default:
			return p.errf("unexpected token %q in class header", tok)
		}
	}
	if prog.Class(c.Name) != nil {
		return p.errf("duplicate class %s", c.Name)
	}
	prog.AddClass(c)
	p.classes = append(p.classes, c)
	p.classLines = append(p.classLines, p.pos)

	for {
		line, ok := p.next()
		if !ok {
			return p.errf("unterminated class %s", c.Name)
		}
		if line == "}" {
			return nil
		}
		switch {
		case strings.HasPrefix(line, "field "), strings.HasPrefix(line, "static-field "):
			static := line[0] == 's'
			var f [3]string
			if fieldsInto(f[:], line) != 3 {
				if static {
					return p.errf("malformed static field %q", line)
				}
				return p.errf("malformed field %q", line)
			}
			if c.Field(f[1]) != nil {
				return p.errf("duplicate field %s.%s", c.Name, f[1])
			}
			c.AddField(&ir.Field{Name: f[1], Type: f[2], Static: static})
		case strings.Contains(line, "method "):
			if err := p.parseMethod(c, line); err != nil {
				return err
			}
		default:
			return p.errf("unexpected class member %q", line)
		}
	}
}

// checkAcyclic rejects a class that is its own supertype, directly or
// through other declared classes: cha.New cannot build a hierarchy over
// such a program. The framework skeletons extend only each other and
// close no cycle, so one depth-first walk from the declared classes
// finds every cycle.
func (p *parser) checkAcyclic(prog *ir.Program) error {
	const (
		onPath = 1
		done   = 2
	)
	state := make(map[string]int8, len(p.classes))
	// visit returns the class at which a cycle through name closes, or
	// "" when there is none.
	var visit func(name string) string
	visit = func(name string) string {
		c := prog.Class(name)
		if c == nil || state[name] == done {
			return ""
		}
		if state[name] == onPath {
			return name
		}
		state[name] = onPath
		if at := visit(c.Super); at != "" {
			return at
		}
		for _, i := range c.Interfaces {
			if at := visit(i); at != "" {
				return at
			}
		}
		state[name] = done
		return ""
	}
	for _, c := range p.classes {
		if at := visit(c.Name); at != "" {
			for i, d := range p.classes {
				if d.Name == at {
					return errAt(p.classLines[i], "cyclic class hierarchy at %s", at)
				}
			}
		}
	}
	return nil
}

// Bounds on what one method may declare: the JVM allows at most 255
// parameter slots, and Dalvik register numbers are 16-bit. Every frame
// of a method holds all of its registers, so without them a short file
// could make one frame gigabytes large.
const (
	argLimit = 255
	regLimit = 65535
)

func (p *parser) parseMethod(c *ir.Class, header string) error {
	static := strings.Contains(header, "static ")
	synch := strings.Contains(header, "synchronized ")
	abstract := strings.Contains(header, "abstract ")
	h := header
	idx := strings.Index(h, "method ")
	h = h[idx+len("method "):]
	h = strings.TrimSuffix(strings.TrimSpace(h), "{")
	h = strings.TrimSpace(h)
	open := strings.IndexByte(h, '(')
	close := strings.IndexByte(h, ')')
	if open <= 0 || close < open {
		return p.errf("malformed method header %q", header)
	}
	name := h[:open]
	nargs, err := strconv.Atoi(h[open+1 : close])
	if err != nil {
		return p.errf("bad arg count in %q", header)
	}
	if nargs < 0 || nargs > argLimit {
		return p.errf("arg count %d of %s.%s outside [0, %d]", nargs, c.Name, name, argLimit)
	}
	if c.Method(name) != nil {
		return p.errf("duplicate method %s.%s", c.Name, name)
	}
	m := ir.NewMethod(c.Name, name, nargs)
	m.Static = static
	m.Synch = synch
	m.Abstract = abstract
	c.AddMethod(m)
	if abstract {
		return nil
	}

	maxReg := m.NumRegs - 1
	instrs, labels := p.bodyLen()
	m.Instrs = make([]ir.Instr, 0, instrs)
	for {
		line, ok := p.next()
		if !ok {
			return p.errf("unterminated method %s", m.Ref())
		}
		if line == "}" {
			m.NumRegs = maxReg + 1
			return nil
		}
		if isLabel(line) {
			label := strings.TrimSuffix(line, ":")
			if _, dup := m.Labels[label]; dup {
				return p.errf("duplicate label %s in %s", label, m.Ref())
			}
			if m.Labels == nil {
				m.Labels = make(map[string]int, labels)
			}
			m.Labels[label] = len(m.Instrs)
			continue
		}
		in, err := p.parseInstr(line)
		if err != nil {
			return err
		}
		top := in.MaxReg()
		if top > regLimit {
			return p.errf("register r%d above r%d in %s", top, regLimit, m.Ref())
		}
		maxReg = max(maxReg, top)
		m.Instrs = append(m.Instrs, in)
	}
}

// parseInstr decodes one instruction line.
func (p *parser) parseInstr(line string) (ir.Instr, error) {
	bad := func() (ir.Instr, error) { return ir.Instr{}, p.errf("cannot parse instruction %q", line) }
	switch {
	case line == "nop":
		return ir.Instr{Op: ir.OpNop}, nil
	case line == "return":
		return ir.Instr{Op: ir.OpReturn, A: ir.NoReg}, nil
	case strings.HasPrefix(line, "return r"):
		r, err := parseReg(strings.TrimPrefix(line, "return "))
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpReturn, A: r}, nil
	case strings.HasPrefix(line, "goto "):
		return ir.Instr{Op: ir.OpGoto}.WithTarget(strings.TrimSpace(strings.TrimPrefix(line, "goto "))), nil
	case strings.HasPrefix(line, "if ? goto "):
		return ir.Instr{Op: ir.OpIfCond}.WithTarget(strings.TrimSpace(strings.TrimPrefix(line, "if ? goto "))), nil
	case strings.HasPrefix(line, "if "):
		// if rN == null goto L | if rN != null goto L
		var f [6]string
		if fieldsInto(f[:], line) != 6 || f[2] != "null" && f[3] != "null" {
			return bad()
		}
		r, err := parseReg(f[1])
		if err != nil {
			return bad()
		}
		op := ir.OpIfNull
		if f[2] == "!=" {
			op = ir.OpIfNonNull
		} else if f[2] != "==" {
			return bad()
		}
		return ir.Instr{Op: op, B: r}.WithTarget(f[5]), nil
	case strings.HasPrefix(line, "lock r"):
		r, err := parseReg(strings.TrimPrefix(line, "lock "))
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpMonitorEnter, B: r}, nil
	case strings.HasPrefix(line, "unlock r"):
		r, err := parseReg(strings.TrimPrefix(line, "unlock "))
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpMonitorExit, B: r}, nil
	case strings.HasPrefix(line, "throw r"):
		r, err := parseReg(strings.TrimPrefix(line, "throw "))
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpThrow, B: r}, nil
	case strings.HasPrefix(line, "call "):
		return p.parseCall(strings.TrimPrefix(line, "call "), ir.NoReg)
	case strings.HasPrefix(line, "static "):
		// static C.f = rN
		rest := strings.TrimPrefix(line, "static ")
		lhs, rhs, ok := cutAssign(rest)
		if !ok {
			return bad()
		}
		ref, ok := parseFieldRef(lhs)
		if !ok {
			return bad()
		}
		r, err := parseReg(rhs)
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpPutStatic, A: r}.WithField(ref), nil
	}

	lhs, rhs, ok := cutAssign(line)
	if !ok {
		return bad()
	}
	// Putfield: rB.C.f = rA
	if strings.Contains(lhs, ".") {
		base, ref, ok := parseFieldAccess(lhs)
		if !ok {
			return bad()
		}
		r, err := parseReg(rhs)
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpPutField, B: base, A: r}.WithField(ref), nil
	}
	// Everything else defines a register.
	dst, err := parseReg(lhs)
	if err != nil {
		return bad()
	}
	switch {
	case rhs == "null":
		return ir.Instr{Op: ir.OpConstNull, A: dst}, nil
	case strings.HasPrefix(rhs, "\""):
		s, err := strconv.Unquote(rhs)
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpConstStr, A: dst}.WithStrVal(s), nil
	case strings.HasPrefix(rhs, "new "):
		return ir.Instr{Op: ir.OpNew, A: dst}.WithType(strings.TrimSpace(strings.TrimPrefix(rhs, "new "))), nil
	case strings.HasPrefix(rhs, "static "):
		ref, ok := parseFieldRef(strings.TrimSpace(strings.TrimPrefix(rhs, "static ")))
		if !ok {
			return bad()
		}
		return ir.Instr{Op: ir.OpGetStatic, A: dst}.WithField(ref), nil
	case strings.HasSuffix(rhs, ")"):
		in, err := p.parseCall(rhs, dst)
		if err != nil {
			return bad()
		}
		return in, nil
	case strings.Contains(rhs, "."):
		base, ref, ok := parseFieldAccess(rhs)
		if !ok {
			return bad()
		}
		return ir.Instr{Op: ir.OpGetField, A: dst, B: base}.WithField(ref), nil
	case strings.HasPrefix(rhs, "r"):
		src, err := parseReg(rhs)
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpMove, A: dst, B: src}, nil
	default:
		v, err := strconv.ParseInt(rhs, 10, 64)
		if err != nil {
			return bad()
		}
		return ir.Instr{Op: ir.OpConstInt, A: dst, IntVal: v}, nil
	}
}

// parseCall decodes `rB.C.m(r1, r2)` or `C.m(r1)` bodies.
func (p *parser) parseCall(s string, dst int) (ir.Instr, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return ir.Instr{}, p.errf("malformed call %q", s)
	}
	target := s[:open]
	var args []int
	if inner := strings.TrimSpace(s[open+1 : len(s)-1]); inner != "" {
		args = make([]int, 0, strings.Count(inner, ",")+1)
		for more := true; more; {
			var part string
			part, inner, more = strings.Cut(inner, ",")
			r, err := parseReg(strings.TrimSpace(part))
			if err != nil {
				return ir.Instr{}, p.errf("bad call arg %q", part)
			}
			args = append(args, r)
		}
	}
	if strings.HasPrefix(target, "r") {
		// rB.Class.name
		dot := strings.IndexByte(target, '.')
		if dot < 0 {
			return ir.Instr{}, p.errf("malformed virtual call %q", s)
		}
		recv, err := parseReg(target[:dot])
		if err != nil {
			return ir.Instr{}, p.errf("bad receiver in %q", s)
		}
		cls, name, ok := ir.SplitRef(target[dot+1:])
		if !ok {
			return ir.Instr{}, p.errf("bad callee ref in %q", s)
		}
		return ir.Instr{Op: ir.OpInvoke, A: dst, B: recv, Args: args}.WithCallee(ir.MethodRef{Class: cls, Name: name}), nil
	}
	cls, name, ok := ir.SplitRef(target)
	if !ok {
		return ir.Instr{}, p.errf("bad static callee in %q", s)
	}
	return ir.Instr{Op: ir.OpInvokeStatic, A: dst, Args: args}.WithCallee(ir.MethodRef{Class: cls, Name: name}), nil
}

// cutAssign splits "lhs = rhs" on the first top-level " = ".
func cutAssign(s string) (string, string, bool) {
	i := strings.Index(s, " = ")
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+3:]), true
}

// parseReg decodes a register: "r" followed by decimal digits, with no
// sign (strconv.Atoi alone would read "r-1" as ir.NoReg).
func parseReg(s string) (int, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("not a register: %q", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("not a register: %q", s)
		}
	}
	return strconv.Atoi(s[1:])
}

// parseFieldAccess splits "rB.Class.name".
func parseFieldAccess(s string) (int, ir.FieldRef, bool) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return 0, ir.FieldRef{}, false
	}
	base, err := parseReg(s[:dot])
	if err != nil {
		return 0, ir.FieldRef{}, false
	}
	ref, ok := parseFieldRef(s[dot+1:])
	return base, ref, ok
}

func parseFieldRef(s string) (ir.FieldRef, bool) {
	cls, name, ok := ir.SplitRef(s)
	if !ok {
		return ir.FieldRef{}, false
	}
	return ir.FieldRef{Class: cls, Name: name}, true
}
