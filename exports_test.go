package repro

// The dead-export gate: every exported func, method, type, const and var
// under internal/ is named by a non-test file of another package of the
// module, or has a line in testdata/exports_allowlist.txt saying why not.
// A method that satisfies an interface is exempt: a call through the
// interface names the interface's method, not the concrete one.
//
// Its second rule is the dead-knob rule: every field of a config struct
// under internal/ (a named struct type whose name ends in Config, Options or
// Policy) is written by a non-test file of another package, or has an
// allowlist line saying why not. Other struct fields are out of scope (they
// are the JSON and wire schemas), and so are load.Config and
// nettrace.Config, the recorded workload's file schema.
//
// Its third rule is the dead-knob rule at the command line: every flag
// registered on a flag.FlagSet in a cmd/ package is passed by a Makefile
// recipe, .github/workflows/ci.yml, a command line in README.md or docs/, or
// a test of its binary, or has an allowlist line saying why not. In the
// other direction, a command line in those files that passes a flag its
// binary does not register fails.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const exportsAllowlist = "testdata/exports_allowlist.txt"

// modPkg is one package of the module: its non-test files that the build
// context selects, type-checked.
type modPkg struct {
	path   string
	dir    string
	files  []string
	syntax []*ast.File
	types  *types.Package
	info   *types.Info
}

// module is every package under one go.mod, type-checked in one process.
// Module imports resolve to packages the loader has parsed itself; only the
// standard library goes through the source importer.
type module struct {
	fset *token.FileSet
	path string
	pkgs map[string]*modPkg
	std  types.Importer
}

var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
)

// stdImporter is shared by every load in the test binary, so the standard
// library is type-checked from source once. Cgo is off: the net package's
// pure-Go resolver then stands in for its cgo one, and no C toolchain runs.
func stdImporter() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImp
}

// loadModule type-checks every package under root, skipping testdata and
// directories whose names start with "." or "_", as the go command does.
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset, std := stdImporter()
	m := &module{fset: fset, path: modPath, pkgs: map[string]*modPkg{}, std: std}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		m.pkgs[path] = &modPkg{path: path, dir: dir, files: bp.GoFiles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.pkgs {
		if _, err := m.check(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import resolves a module import to the loader's own type-checked package
// and anything else to the standard library.
func (m *module) Import(path string) (*types.Package, error) {
	if _, ok := m.pkgs[path]; ok {
		return m.check(path)
	}
	return m.std.Import(path)
}

func (m *module) check(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	files := make([]*ast.File, 0, len(p.files))
	for _, name := range p.files {
		f, err := parser.ParseFile(m.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.syntax, p.types = files, tp
	return tp, nil
}

// finding is an export that no other package's non-test file names, a
// config field that none writes, or a CLI flag that nothing passes.
type finding struct {
	id   string // "pkg.Name", "pkg.T.M", "pkg.(*T).M", "pkg.T.Field" (pkg is the path under internal/) or "cmd/bin[ sub] -flag"
	pos  string // file:line, relative to the module root
	kind findingKind
}

type findingKind int

const (
	deadExport findingKind = iota
	deadField
	deadFlag
)

// relPos is p's file:line relative to root.
func (m *module) relPos(root string, p token.Pos) string {
	pos := m.fset.Position(p)
	if rel, err := filepath.Rel(root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// deadExports lists the module's dead exports under internal/, sorted by id.
func (m *module) deadExports(root string) []finding {
	used := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.types {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	ifaces := m.interfaces()
	prefix := m.path + "/internal/"
	var out []finding
	add := func(pkg string, obj types.Object, id string) {
		out = append(out, finding{id: pkg + "." + id, pos: m.relPos(root, obj.Pos())})
	}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		pkg := strings.TrimPrefix(path, prefix)
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				add(pkg, obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() || used[fn] || satisfies(named, fn, ifaces) {
					continue
				}
				recv := name
				if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				add(pkg, fn, recv+"."+fn.Name())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// fileSchemas are the config types that are a file format rather than
// knobs: the recorded workload's JSON (internal/load/record.go).
var fileSchemas = map[string]bool{"load.Config": true, "nettrace.Config": true}

// configFields returns every field of the config structs under internal/,
// keyed by its "pkg.Type.Field" id.
func (m *module) configFields() map[*types.Var]string {
	prefix := m.path + "/internal/"
	fields := map[*types.Var]string{}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		pkg := strings.TrimPrefix(path, prefix)
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || fileSchemas[pkg+"."+name] ||
				!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fields[st.Field(i)] = pkg + "." + name + "." + st.Field(i).Name()
			}
		}
	}
	return fields
}

// fieldWrites returns the struct fields that p's files write: a
// composite-literal key, every field on the selector chain of an assignment,
// op=, ++ or -- target (cfg.Inner.X = v writes Inner and X), and every field
// on the chain of an &-operand.
func (p *modPkg) fieldWrites() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	var chain func(ast.Expr)
	chain = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if v, ok := p.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					written[v] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range p.syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
								written[v] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					chain(lhs)
				}
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					chain(x.Key)
					chain(x.Value)
				}
			case *ast.IncDecStmt:
				chain(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					chain(x.X)
				}
			}
			return true
		})
	}
	return written
}

// deadFields lists the config fields under internal/ that no non-test file
// of another package writes, sorted by id.
func (m *module) deadFields(root string) []finding {
	fields := m.configFields()
	written := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for v := range p.fieldWrites() {
			if v.Pkg() != p.types {
				written[v] = true
			}
		}
	}
	var out []finding
	for v, id := range fields {
		if !written[v] {
			out = append(out, finding{id: id, pos: m.relPos(root, v.Pos()), kind: deadField})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// interfaces indexes, by method name, every package-level interface of the
// module and of every standard-library package it imports, with error.
func (m *module) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	byName["Error"] = append(byName["Error"], errIface)
	return byName
}

// satisfies reports whether fn, a method of named, is one of the methods by
// which named or its pointer implements an interface in ifaces.
func satisfies(named *types.Named, fn *types.Func, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if it.NumMethods() == 0 {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// readAllowlist parses "id  reason" lines; blank lines and lines starting
// with # are skipped. A flag's id runs through its "-flag" field:
// "cmd/bin -flag  reason" or "cmd/bin sub -flag  reason".
func readAllowlist(text string) (map[string]string, []string) {
	entries := map[string]string{}
	var problems []string
	for i, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		n := 1
		if strings.HasPrefix(fields[0], "cmd/") {
			for n < len(fields) && !strings.HasPrefix(fields[n-1], "-") {
				n++
			}
		}
		id, reason := strings.Join(fields[:n], " "), strings.Join(fields[n:], " ")
		switch {
		case reason == "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", exportsAllowlist, i+1, id))
		case entries[id] != "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s is listed twice", exportsAllowlist, i+1, id))
		default:
			entries[id] = reason
		}
	}
	return entries, problems
}

// gate returns one line per unlisted finding and per stale entry.
func gate(findings []finding, allow map[string]string) []string {
	var problems []string
	found := map[string]bool{}
	for _, f := range findings {
		found[f.id] = true
		switch {
		case allow[f.id] != "":
		case f.kind == deadFlag:
			problems = append(problems, fmt.Sprintf("%s: %s is a flag that no Makefile recipe, CI step, README.md or docs/ command line, or test of its binary passes: make it the constant it always holds, or list it in %s with a reason", f.pos, f.id, exportsAllowlist))
		case f.kind == deadField:
			problems = append(problems, fmt.Sprintf("%s: %s is a config field that no non-test file of another package writes: make it the constant it always holds, derive it, or list it in %s with a reason", f.pos, f.id, exportsAllowlist))
		default:
			problems = append(problems, fmt.Sprintf("%s: %s is exported but no non-test file of another package names it: unexport it, delete it, move it into a _test.go file, or list it in %s with a reason", f.pos, f.id, exportsAllowlist))
		}
	}
	var stale []string
	for id := range allow {
		if !found[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		problems = append(problems, fmt.Sprintf("%s: %s is stale (deleted, renamed, unexported, or now named, written or passed outside its package): remove the line", exportsAllowlist, id))
	}
	return problems
}

// flagSet names one flag.FlagSet of a binary under cmd/: the binary's
// directory and, for a subcommand's set, the subcommand.
type flagSet struct{ bin, sub string }

func (s flagSet) String() string {
	if s.sub == "" {
		return "cmd/" + s.bin
	}
	return "cmd/" + s.bin + " " + s.sub
}

// flagRegistrars are the flag package's functions and *FlagSet methods
// that register a flag; the ones ending in Var take the name second.
var flagRegistrars = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// registeredFlags returns the flags that the non-test files of the cmd/
// packages register, as set -> name -> file:line. A registration belongs
// to the set its enclosing function creates with flag.NewFlagSet (the
// binary's own set when the function creates none); a set named
// "<bin> <sub>" is subcommand sub's.
func (m *module) registeredFlags(root string) (map[flagSet]map[string]string, []string) {
	flags := map[flagSet]map[string]string{}
	var problems []string
	prefix := m.path + "/cmd/"
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		bin := strings.TrimPrefix(path, prefix)
		flagFunc := func(n ast.Node) (string, *ast.CallExpr) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return "", nil
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return "", nil
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return "", nil
			}
			return fn.Name(), call
		}
		for _, f := range p.syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				set := flagSet{bin: bin}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if name, call := flagFunc(n); name == "NewFlagSet" && len(call.Args) > 0 {
						if s, ok := stringLit(call.Args[0]); ok {
							if f := strings.Fields(s); len(f) == 2 && f[0] == bin {
								set.sub = f[1]
							}
						}
					}
					return true
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					name, call := flagFunc(n)
					if !flagRegistrars[name] {
						return true
					}
					arg := 0
					if strings.HasSuffix(name, "Var") {
						arg = 1
					}
					at := m.relPos(root, call.Pos())
					flag, ok := "", len(call.Args) > arg
					if ok {
						flag, ok = stringLit(call.Args[arg])
					}
					if !ok {
						problems = append(problems, fmt.Sprintf("%s: %s registers a flag whose name is not a string literal", at, set))
						return true
					}
					if flags[set] == nil {
						flags[set] = map[string]string{}
					}
					flags[set][flag] = at
					return true
				})
			}
		}
	}
	return flags, problems
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// cmdLine is one invocation of a binary under cmd/: the set it addresses
// and the flags it passes.
type cmdLine struct {
	set   flagSet
	flags []string
	pos   string // file:line; empty for a test's argument list
}

var flagWord = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_.-]*)(=.*)?$`)

// flagName is the flag a command-line word passes ("-name", "--name" or
// "-name=value"), or "" if the word is not a flag.
func flagName(word string) string {
	if m := flagWord.FindStringSubmatch(word); m != nil {
		return m[1]
	}
	return ""
}

// shellCmdLines finds the invocations of the binaries in subs (binary ->
// its subcommands) in one shell command line: a word whose last path
// element names a binary, first in its pipeline stage or after "run" (go
// run ./cmd/bin), then the subcommand if the next word names one, then
// every flag word up to the stage's end or a # comment.
func shellCmdLines(line, pos string, subs map[string]map[string]bool) []cmdLine {
	words := strings.Fields(line)
	for i, w := range words {
		if strings.HasPrefix(w, "#") {
			words = words[:i]
			break
		}
	}
	var out []cmdLine
	for len(words) > 0 {
		stage := words
		words = nil
		for i, w := range stage {
			if w == "|" || w == "||" || w == "&&" || w == ";" || w == "&" {
				stage, words = stage[:i], stage[i+1:]
				break
			}
		}
		for j, w := range stage {
			bin := path.Base(w)
			if subs[bin] == nil || (j > 0 && stage[j-1] != "run") {
				continue
			}
			c := cmdLine{set: flagSet{bin: bin}, pos: pos}
			rest := stage[j+1:]
			if len(rest) > 0 && subs[bin][rest[0]] {
				c.set.sub, rest = rest[0], rest[1:]
			}
			for _, w := range rest {
				if name := flagName(w); name != "" {
					c.flags = append(c.flags, name)
				}
			}
			out = append(out, c)
			break
		}
	}
	return out
}

var inlineCode = regexp.MustCompile("`[^`]+`")

// docCmdLines finds the invocations in a shell file (Makefile, CI YAML:
// every line, continuations joined) or a markdown file (fenced code lines,
// continuations joined, and inline code spans).
func docCmdLines(rel, text string, subs map[string]map[string]bool) []cmdLine {
	var out []cmdLine
	markdown := strings.HasSuffix(rel, ".md")
	lines := strings.Split(text, "\n")
	var prose strings.Builder
	fenced := false
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if markdown {
			if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~") {
				fenced = !fenced
				prose.WriteString("\n")
				continue
			}
			if !fenced {
				prose.WriteString(line + "\n")
				continue
			}
			prose.WriteString("\n")
		}
		first := i
		for strings.HasSuffix(strings.TrimSpace(line), "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimSpace(line), "\\") + " " + lines[i]
			prose.WriteString("\n") // prose keeps one newline per line, for the spans' line numbers
		}
		out = append(out, shellCmdLines(line, fmt.Sprintf("%s:%d", rel, first+1), subs)...)
	}
	if markdown {
		text := prose.String()
		for _, loc := range inlineCode.FindAllStringIndex(text, -1) {
			span := strings.ReplaceAll(text[loc[0]+1:loc[1]-1], "\n", " ")
			line := strings.Count(text[:loc[0]], "\n") + 1
			out = append(out, shellCmdLines(span, fmt.Sprintf("%s:%d", rel, line), subs)...)
		}
	}
	return out
}

// testCmdLines finds the argument lists in a binary's tests: each
// composite literal of string literals that holds a flag word addresses the
// subcommand one of its literals names, or the binary's own set.
func testCmdLines(f *ast.File, bin string, subs map[string]bool) []cmdLine {
	var out []cmdLine
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		c := cmdLine{set: flagSet{bin: bin}}
		for _, e := range lit.Elts {
			s, ok := stringLit(e)
			if !ok {
				continue
			}
			if subs[s] {
				c.set.sub = s
			} else if name := flagName(s); name != "" {
				c.flags = append(c.flags, name)
			}
		}
		if len(c.flags) > 0 {
			out = append(out, c)
		}
		return true
	})
	return out
}

// flagProblems applies the flag rule to the module at root: it returns the
// registered flags that nothing passes as findings, and one problem per
// registration it cannot read and per command line in the Makefile, CI,
// README.md or docs/ that passes a flag its binary does not register.
func (m *module) flagProblems(root string) ([]finding, []string, error) {
	flags, problems := m.registeredFlags(root)
	subs := map[string]map[string]bool{}
	for set := range flags {
		if subs[set.bin] == nil {
			subs[set.bin] = map[string]bool{}
		}
		if set.sub != "" {
			subs[set.bin][set.sub] = true
		}
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	docs = append(docs, filepath.Join(root, "Makefile"), filepath.Join(root, ".github", "workflows", "ci.yml"), filepath.Join(root, "README.md"))
	var lines []cmdLine
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, nil, err
		}
		rel, _ := filepath.Rel(root, path)
		for _, c := range docCmdLines(filepath.ToSlash(rel), string(text), subs) {
			lines = append(lines, c)
			for _, name := range c.flags {
				if flags[c.set][name] == "" {
					problems = append(problems, fmt.Sprintf("%s: passes -%s, which %s does not register: fix or drop the command line", c.pos, name, c.set))
				}
			}
		}
	}
	for bin := range subs {
		tests, _ := filepath.Glob(filepath.Join(root, "cmd", bin, "*_test.go"))
		for _, path := range tests {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			lines = append(lines, testCmdLines(f, bin, subs[bin])...)
		}
	}
	passed := map[flagSet]map[string]bool{}
	for _, c := range lines {
		if passed[c.set] == nil {
			passed[c.set] = map[string]bool{}
		}
		for _, name := range c.flags {
			passed[c.set][name] = true
		}
	}
	var dead []finding
	for set, names := range flags {
		for name, pos := range names {
			if !passed[set][name] {
				dead = append(dead, finding{id: set.String() + " -" + name, pos: pos, kind: deadFlag})
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	return dead, problems, nil
}

// exportProblems runs the gate over the module at root against the
// allowlist text.
func exportProblems(root, allowlist string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	allow, problems := readAllowlist(allowlist)
	deadFlags, flagProblems, err := m.flagProblems(root)
	if err != nil {
		return nil, err
	}
	findings := append(append(m.deadExports(root), m.deadFields(root)...), deadFlags...)
	return append(append(problems, flagProblems...), gate(findings, allow)...), nil
}

func TestExportsHaveOutsideCallers(t *testing.T) {
	allowlist, err := os.ReadFile(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := exportProblems(".", string(allowlist))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportGateRules runs the gate over small fixture modules, one rule
// each.
func TestExportGateRules(t *testing.T) {
	lib := `package a

import "fmt"

var _ fmt.Stringer = Square{}

type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return "square" }

func (s Square) Perimeter() float64 { return 4 * s.Side }

func Used() Square { return Square{} }

func Unused() {}
`
	main := `package main

import "fix/internal/a"

func main() {
	var sh a.Shape = a.Used()
	var sq a.Square
	_, _ = sh, sq
}
`
	cfgLib := `package c

type inner struct{ X int }

type Config struct {
	Set   int
	Inner inner
	Own   int
}

func Default() Config { return Config{Own: 1} }
`
	cfgMain := `package main

import "fix/internal/c"

func main() {
	cfg := c.Default()
	cfg.Inner.X = 2
	_ = c.Config{Set: 1}
	_ = cfg
}
`
	flagMain := `package main

import (
	"flag"
	"os"
)

func main() { _ = run(os.Args[1:]) }

func run(args []string) error {
	fs := flag.NewFlagSet("m", flag.ContinueOnError)
	n := fs.Int("n", 1, "count")
	v := fs.Bool("v", false, "verbose")
	_, _ = n, v
	return fs.Parse(args)
}
`
	subMain := `package main

import (
	"flag"
	"os"
)

func main() {
	if os.Args[1] == "a" {
		_ = a(os.Args[2:])
	}
	_ = b(os.Args[2:])
}

func a(args []string) error {
	fs := flag.NewFlagSet("s a", flag.ContinueOnError)
	_ = fs.Bool("json", false, "JSON out")
	return fs.Parse(args)
}

func b(args []string) error {
	fs := flag.NewFlagSet("s b", flag.ContinueOnError)
	_ = fs.Bool("json", false, "JSON out")
	return fs.Parse(args)
}
`
	flagTest := "package main\n\nimport \"testing\"\n\nfunc TestRun(t *testing.T) { _ = run([]string{\"-n\", \"2\", \"-v\"}) }\n"
	for _, tc := range []struct {
		name      string
		files     map[string]string
		allowlist string
		want      []string // substrings, one problem each, in order
	}{{
		name:      "an unused export is flagged at its file:line",
		files:     map[string]string{"internal/a/a.go": lib, "cmd/m/main.go": main},
		allowlist: "a.Square.Perimeter  kept for the test\n",
		want:      []string{"internal/a/a.go:19: a.Unused is exported but"},
	}, {
		name: "a reference from a _test.go file does not count",
		files: map[string]string{"internal/a/a.go": lib, "cmd/m/main.go": main,
			"cmd/m/main_test.go": "package main\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/a\"\n)\n\nfunc TestX(t *testing.T) { a.Unused(); _ = a.Square{}.Perimeter() }\n"},
		want: []string{"a.Square.Perimeter is exported", "a.Unused is exported"},
	}, {
		name: "a method that satisfies an interface is exempt",
		files: map[string]string{"internal/a/a.go": lib,
			"cmd/m/main.go": strings.Replace(main, "_, _ = sh, sq", "_, _ = sh, sq.Perimeter()\n\ta.Unused()", 1)},
	}, {
		name: "a reference from a bench-like main package counts",
		files: map[string]string{"internal/a/a.go": lib, "cmd/m/main.go": main,
			"bench/main.go": "package main\n\nimport \"fix/internal/a\"\n\nfunc main() { a.Unused(); _ = a.Square{}.Perimeter() }\n"},
	}, {
		name: "a stale allowlist entry fails",
		files: map[string]string{"internal/a/a.go": lib, "cmd/m/main.go": main,
			"bench/main.go": "package main\n\nimport \"fix/internal/a\"\n\nfunc main() { a.Unused(); _ = a.Square{}.Perimeter() }\n"},
		allowlist: "a.Unused  once dead\n",
		want:      []string{"a.Unused is stale"},
	}, {
		name:      "an entry without a reason fails",
		files:     map[string]string{"internal/a/a.go": lib, "cmd/m/main.go": main},
		allowlist: "a.Square.Perimeter  kept for the test\na.Unused\n",
		want:      []string{"a.Unused has no reason", "a.Unused is exported but"},
	}, {
		name:  "a config field written only in its own package is flagged at its file:line",
		files: map[string]string{"internal/c/c.go": cfgLib, "cmd/m/main.go": cfgMain},
		want:  []string{"internal/c/c.go:8: c.Config.Own is a config field"},
	}, {
		name: "a composite-literal key in another package's non-test file is a write",
		files: map[string]string{"internal/c/c.go": cfgLib,
			"cmd/m/main.go": strings.Replace(cfgMain, "{Set: 1}", "{Set: 1, Own: 2}", 1)},
	}, {
		name:      "cfg.Inner.X = v writes Inner",
		files:     map[string]string{"internal/c/c.go": cfgLib, "cmd/m/main.go": cfgMain},
		allowlist: "c.Config.Own  set by Default\n",
	}, {
		name: "reading cfg.Inner.X is not a write",
		files: map[string]string{"internal/c/c.go": cfgLib,
			"cmd/m/main.go": strings.Replace(cfgMain, "cfg.Inner.X = 2", "_ = cfg.Inner.X", 1)},
		allowlist: "c.Config.Own  set by Default\n",
		want:      []string{"c.Config.Inner is a config field"},
	}, {
		name: "a write in a _test.go file does not count",
		files: map[string]string{"internal/c/c.go": cfgLib, "cmd/m/main.go": cfgMain,
			"cmd/m/main_test.go": "package main\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/c\"\n)\n\nfunc TestX(t *testing.T) { cfg := c.Config{Own: 3}; cfg.Own++ }\n"},
		want: []string{"c.Config.Own is a config field"},
	}, {
		name: "a stale config field line fails",
		files: map[string]string{"internal/c/c.go": cfgLib,
			"cmd/m/main.go": strings.Replace(cfgMain, "_ = cfg\n", "cfg.Own = 2\n\t_ = cfg\n", 1)},
		allowlist: "c.Config.Own  once unset\n",
		want:      []string{"c.Config.Own is stale"},
	}, {
		name:  "a flag that nothing passes is flagged at its file:line",
		files: map[string]string{"cmd/m/main.go": flagMain, "Makefile": "run:\n\tgo run ./cmd/m -v\n"},
		want:  []string{"cmd/m/main.go:12: cmd/m -n is a flag that"},
	}, {
		name: "a fenced README command line passes its flags across continuations",
		files: map[string]string{"cmd/m/main.go": flagMain,
			"README.md": "Run it:\n\n```sh\ngo run ./cmd/m \\\n    -n 2 -v\n```\n"},
	}, {
		name: "an inline code span in docs/ passes its flags across a line break",
		files: map[string]string{"cmd/m/main.go": flagMain,
			"docs/use.md": "Counting needs `m -n\n2 -v` and nothing else.\n"},
	}, {
		name:  "a test of the binary passes its flags",
		files: map[string]string{"cmd/m/main.go": flagMain, "cmd/m/main_test.go": flagTest},
	}, {
		name: "a # comment and a go test line pass nothing",
		files: map[string]string{"cmd/m/main.go": flagMain,
			"README.md": "```sh\nm -v   # add -n to count\ngo test ./cmd/m -n\n```\n"},
		want: []string{"cmd/m -n is a flag that"},
	}, {
		name: "a subcommand's flag is passed only through its subcommand",
		files: map[string]string{"cmd/s/main.go": subMain,
			"cmd/s/main_test.go": "package main\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { _ = a([]string{\"a\", \"-json\"}) }\n"},
		want: []string{"cmd/s b -json is a flag that"},
	}, {
		name:      "a listed flag passes and a stale flag line fails",
		files:     map[string]string{"cmd/m/main.go": flagMain, "Makefile": "run:\n\tgo run ./cmd/m -v\n"},
		allowlist: "cmd/m -n  a deployment setting\ncmd/m -v  once unpassed\n",
		want:      []string{"cmd/m -v is stale"},
	}, {
		name: "a command line that passes an unregistered flag fails",
		files: map[string]string{"cmd/m/main.go": flagMain, "cmd/m/main_test.go": flagTest,
			"Makefile": "run:\n\tgo run ./cmd/m -v -x=1 | tee out.txt\n", "docs/use.md": "Try `m -n 1 -count 3`.\n"},
		want: []string{"docs/use.md:1: passes -count, which cmd/m does not register", "Makefile:2: passes -x, which cmd/m does not register"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.files["go.mod"] = "module fix\n\ngo 1.22\n"
			for name, src := range tc.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			problems, err := exportProblems(root, tc.allowlist)
			if err != nil {
				t.Fatal(err)
			}
			ok := len(problems) == len(tc.want)
			for i := 0; ok && i < len(problems); i++ {
				ok = strings.Contains(problems[i], tc.want[i])
			}
			if !ok {
				t.Errorf("problems:\n%s\nwant one containing each of %q", strings.Join(problems, "\n"), tc.want)
			}
		})
	}
}
