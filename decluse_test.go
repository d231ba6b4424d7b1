package amoeba

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"amoeba/internal/bufpool"
)

// This file is the gate that every declaration has a use: it type-checks
// every package of the module (with the standard library only: go/build,
// go/parser, go/types and the source importer), each package's in-package
// tests and its external _test package, and fails on any top-level func,
// var, const or type, method or struct field declared in a non-test file
// that
//   - has no use outside its own declaration ("no use"),
//   - is used only from _test.go files ("used only by tests"), or
//   - is an unexported field that is only ever written: an assignment
//     target, a ++/-- operand or a composite-literal key ("written, never
//     read").
//
// Uses by rule rather than by list: a method whose receiver T or *T
// implements an interface (of the module or the standard library) that
// declares a method of that name; an embedded field; a field with a
// struct tag; every field of a struct type that is a map key or an operand
// of == or !=; the typed constants of one iota block, which are one
// declaration (a zero member is often the unnamed default); main, init,
// Test*, Benchmark*, Fuzz* and Example* functions. A use inside the
// declaration itself (a recursive call, a type naming itself, a method's
// receiver) does not count.
//
// benchmark/ changes only with the benchmark itself: the gate type-checks
// it and counts its uses, but does not report its declarations until
// ROADMAP item 22 brings it under the gate.

// declAllow names each declaration the gate would report that stays, with
// its reason. A name is the package's path within the module (the root is
// "amoeba"), a dot, and the declaration: Name, T.Method or (*T).Method,
// T.field, or the first constant of a typed iota block. An entry may name a
// type to cover its methods, fields and iota block. An entry with no
// reason, one that names nothing, and one that names only what the gate
// passes anyway each fail the gate.
var declAllow = map[string]string{
	"amoeba.UDPNetwork":                       "the UDP loopback fabric; ROADMAP item 6's one-node-per-process amoeba-kv makes it a product caller",
	"amoeba.NewUDPNetwork":                    "the UDP loopback fabric's constructor; see amoeba.UDPNetwork",
	"amoeba.Method":                           "README's section 3.1 row spells the paper's PB/BB choice as GroupOptions.Method and these constants",
	"obs.(*Auditor).Forget":                   "ROADMAP item 11's heal returns a rebuilt replica's verdict to ok through it",
	"obs.(*Auditor).SetStaleAfter":            "kv's and obs's health tests shorten the 5 s staleness window to see a silent replica go stale in under a second",
	"obs.MergeTraces":                         "reassembles one op from several hubs' tracers; kv's and obs's trace tests call it until a node runs in its own process (ROADMAP item 6)",
	"internal/netw/memnet.(*Network).Isolate": "core's partition and recovery tests pull one member's cable and restore members one at a time, which Partition and Heal cannot express",
	"internal/netw/memnet.(*Network).Dropped": "core's, cm's and memnet's loss tests confirm that the fabric dropped frames",
	"internal/netsim.(*Station).RingDrops":    "netsim's and the calibration test check that overload collapse comes from receive-ring drops, the paper's mechanism",
	"shared.(*Replica).Debug":                 "kv's and shared's convergence tests log each replica's protocol state when they time out",
}

// declUnreported lists the module directories whose declarations are
// type-checked and whose uses count, but which the gate does not report.
var declUnreported = []string{"benchmark"}

func TestEveryDeclarationHasAUse(t *testing.T) {
	if bufpool.Poison {
		t.Skip("a type check gives the race detector nothing to find; CI runs this gate in a plain step")
	}
	rep, err := checkDeclUse(".", declUnreported)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range rep.failures(declAllow) {
		t.Error(msg)
	}
}

// TestDeclUseGateOnFixture runs the gate's analysis over a small module
// under testdata/ with one planted case of each rule.
func TestDeclUseGateOnFixture(t *testing.T) {
	if bufpool.Poison {
		t.Skip("a type check gives the race detector nothing to find; CI runs this gate in a plain step")
	}
	rep, err := checkDeclUse(filepath.Join("testdata", "decluse"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fixture.unusedHelper":     declNoUse,
		"fixture.(*Widget).Resize": declNoUse,
		"fixture.Widget.spare":     declNoUse,
		"fixture.Widget.count":     declWriteOnly,
		"fixture.OnlyTests":        declTestOnly,
	}
	got := map[string]string{}
	for _, f := range rep.findings {
		got[f.name] = f.list
	}
	for name, list := range want {
		if got[name] != list {
			t.Errorf("%s: reported as %q, want %q", name, got[name], list)
		}
	}
	for name, list := range got {
		if want[name] == "" {
			t.Errorf("%s: reported as %q, want it passed", name, list)
		}
	}
	for _, name := range []string{"fixture.square.Area", "fixture.Record.Label", "fixture.pairKey.a", "fixture.modeNone"} {
		if _, ok := rep.decls[name]; !ok {
			t.Errorf("%s: not among the checked declarations", name)
		}
	}

	allow := map[string]string{
		"fixture.unusedHelper":     "planted",
		"fixture.Widget":           "planted: covers Resize, spare and count",
		"fixture.OnlyTests":        "planted",
		"fixture.square.Area":      "stale: passes by the interface rule",
		"fixture.noSuchName":       "stale: names nothing",
		"fixture.(*Widget).Resize": "",
	}
	var stale []string
	for _, msg := range rep.failures(allow) {
		stale = append(stale, msg)
	}
	wantStale := []string{
		`allowlist entry "fixture.(*Widget).Resize" gives no reason`,
		`allowlist entry "fixture.noSuchName" names no declaration`,
		`allowlist entry "fixture.square.Area" names only what the gate passes`,
	}
	if strings.Join(stale, "\n") != strings.Join(wantStale, "\n") {
		t.Errorf("failures with a stale allowlist:\n%s\nwant:\n%s", strings.Join(stale, "\n"), strings.Join(wantStale, "\n"))
	}
}

// The three failure lists.
const (
	declNoUse     = "no use"
	declTestOnly  = "used only by tests"
	declWriteOnly = "written, never read"
)

// declFinding is one declaration the gate reports, in one of its lists.
type declFinding struct {
	name, owner, list string
}

// declReport is the gate's verdict: every checked declaration (name to
// owning type, or "" for a top-level declaration that is not a type) and
// the findings among them, sorted by name.
type declReport struct {
	decls    map[string]string
	findings []declFinding
}

// failures applies an allowlist to the report: each finding it does not
// cover, and each entry that gives no reason, names nothing or covers no
// finding, is one message.
func (r *declReport) failures(allow map[string]string) []string {
	covers := func(entry string, name string) bool {
		return entry == name || entry == r.decls[name]
	}
	var msgs []string
	for _, f := range r.findings {
		allowed := false
		for entry := range allow {
			allowed = allowed || covers(entry, f.name)
		}
		if !allowed {
			msgs = append(msgs, fmt.Sprintf("%s: %s", f.name, f.list))
		}
	}
	entries := make([]string, 0, len(allow))
	for entry := range allow {
		entries = append(entries, entry)
	}
	sort.Strings(entries)
	for _, entry := range entries {
		named, found := false, false
		for name := range r.decls {
			named = named || covers(entry, name)
		}
		for _, f := range r.findings {
			found = found || covers(entry, f.name)
		}
		switch {
		case strings.TrimSpace(allow[entry]) == "":
			msgs = append(msgs, fmt.Sprintf("allowlist entry %q gives no reason", entry))
		case !named:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %q names no declaration", entry))
		case !found:
			msgs = append(msgs, fmt.Sprintf("allowlist entry %q names only what the gate passes", entry))
		}
	}
	return msgs
}

// declUse is one use of a declaration.
type declUse struct {
	pos         token.Pos
	test, write bool
}

// declNode is one declaration to check: keys are the positions of the
// identifiers that declare it (several for an iota block), lo and hi the
// extent of its own declaration.
type declNode struct {
	name, owner string
	keys        []token.Pos
	lo, hi      token.Pos
	field       bool // an unexported struct field
}

// declPkg is one directory of the module, parsed.
type declPkg struct {
	path                 string
	files, tests, xtests []*ast.File
	report               bool
	pkg                  *types.Package
	info                 *types.Info
}

// declChecker type-checks a module and gathers every use of its
// declarations.
type declChecker struct {
	fset   *token.FileSet
	mod    string
	std    types.Importer
	pkgs   map[string]*declPkg
	order  []*declPkg
	errs   []error
	uses   map[token.Pos][]declUse
	used   map[token.Pos]bool // by rule: map keys, comparisons, tags
	recv   map[*ast.Ident]bool
	ifaces map[string][]*types.Interface
	seen   map[*types.Package]bool
}

// checkDeclUse runs the gate's analysis over the module rooted at root.
// Declarations in the directories named by unreported (relative to root)
// are checked for their uses of others but not reported themselves.
func checkDeclUse(root string, unreported []string) (*declReport, error) {
	mod, err := declModulePath(root)
	if err != nil {
		return nil, err
	}
	c := &declChecker{
		fset:   token.NewFileSet(),
		mod:    mod,
		pkgs:   map[string]*declPkg{},
		uses:   map[token.Pos][]declUse{},
		used:   map[token.Pos]bool{},
		recv:   map[*ast.Ident]bool{},
		ifaces: map[string][]*types.Interface{},
		seen:   map[*types.Package]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	if err := c.parseModule(root, unreported); err != nil {
		return nil, err
	}
	for _, p := range c.order {
		c.load(p.path)
	}
	for _, p := range c.order {
		c.checkTests(p)
	}
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	return c.report(), nil
}

func declModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

// parseModule parses every package directory under root, skipping
// testdata and hidden directories as the go tool does.
func (c *declChecker) parseModule(root string, unreported []string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &declPkg{path: c.mod, report: true}
		if rel != "." {
			p.path = c.mod + "/" + filepath.ToSlash(rel)
		}
		for _, u := range unreported {
			if rel == u || strings.HasPrefix(rel, u+string(filepath.Separator)) {
				p.report = false
			}
		}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtests, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		c.pkgs[p.path] = p
		c.order = append(c.order, p)
		return nil
	})
}

// declImporter resolves the module's own imports from source through the
// checker, and everything else through the standard library's importer.
// For an external test package, variant is the package's test variant: as
// the go tool does, every module package that imports it is checked again
// against it (once per external test package, in local).
type declImporter struct {
	c       *declChecker
	variant *types.Package
	local   map[string]*types.Package
}

func (im declImporter) Import(path string) (*types.Package, error) {
	p, ok := im.c.pkgs[path]
	switch {
	case !ok:
		return im.c.std.Import(path)
	case im.variant == nil:
		return im.c.load(path), nil
	case path == im.variant.Path():
		return im.variant, nil
	case !im.c.dependsOn(path, im.variant.Path()):
		return im.c.load(path), nil
	}
	if pkg, ok := im.local[path]; ok {
		return pkg, nil
	}
	pkg, _ := im.c.check(path, p.files, im)
	im.local[path] = pkg
	return pkg, nil
}

// dependsOn reports whether module package a imports b, directly or not.
func (c *declChecker) dependsOn(a, b string) bool {
	for _, imp := range c.load(a).Imports() {
		if imp.Path() == b || (c.inModule(imp.Path()) && c.dependsOn(imp.Path(), b)) {
			return true
		}
	}
	return false
}

func (c *declChecker) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { c.errs = append(c.errs, err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)
	c.record(pkg, info, files)
	return pkg, info
}

// load type-checks a package's non-test files once; every importer shares
// the result.
func (c *declChecker) load(path string) *types.Package {
	p := c.pkgs[path]
	if p.info == nil {
		p.pkg, p.info = c.check(path, p.files, declImporter{c: c})
	}
	return p.pkg
}

// checkTests type-checks a package with its in-package tests, and its
// external test package against that variant.
func (c *declChecker) checkTests(p *declPkg) {
	im := declImporter{c: c}
	if len(p.tests) > 0 {
		files := append(append([]*ast.File{}, p.files...), p.tests...)
		im.variant, _ = c.check(p.path, files, im)
		im.local = map[string]*types.Package{}
	}
	if len(p.xtests) > 0 {
		c.check(p.path+"_test", p.xtests, im)
	}
}

// record notes every use in one type-checked package, which of them are
// writes, and the uses the rules grant: fields of map keys and of compared
// structs, and every interface the package can see.
func (c *declChecker) record(pkg *types.Package, info *types.Info, files []*ast.File) {
	for _, f := range files {
		test := strings.HasSuffix(c.fset.Position(f.Pos()).Filename, "_test.go")
		writes := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			for p, ok := e.(*ast.ParenExpr); ok; p, ok = e.(*ast.ParenExpr) {
				e = p.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				writes[e] = true
			case *ast.SelectorExpr:
				writes[e.Sel] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						writes[id] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					c.useFields(info.TypeOf(n.X))
					c.useFields(info.TypeOf(n.Y))
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							c.recv[id] = true
						}
						return true
					})
				}
			case *ast.Field:
				if n.Tag != nil {
					for _, id := range n.Names {
						c.used[id.Pos()] = true
					}
				}
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || obj.Pkg() == nil || !c.inModule(obj.Pkg().Path()) || c.recv[n] {
					return true
				}
				key := declOrigin(obj).Pos()
				c.uses[key] = append(c.uses[key], declUse{pos: n.Pos(), test: test, write: writes[n]})
			}
			return true
		})
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			c.useFields(m.Key())
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			c.addIface(it)
		}
	}
	if pkg != nil {
		c.addIfaces(pkg)
	}
}

func (c *declChecker) inModule(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	_, ok := c.pkgs[path]
	return ok
}

func declOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// useFields marks every field of a struct type, and of the structs and
// arrays within it, as used: a map key or a compared value reads them all.
func (c *declChecker) useFields(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		c.useFields(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if c.used[f.Origin().Pos()] {
				continue
			}
			c.used[f.Origin().Pos()] = true
			c.useFields(f.Type())
		}
	}
}

// addIfaces indexes the named interfaces of a package and of everything it
// imports, by the names of their methods.
func (c *declChecker) addIfaces(pkg *types.Package) {
	if c.seen[pkg] {
		return
	}
	c.seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			c.addIface(it)
		}
	}
	for _, imp := range pkg.Imports() {
		c.addIfaces(imp)
	}
}

func (c *declChecker) addIface(it *types.Interface) {
	if !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// implements reports whether T or *T implements an interface that declares
// a method named m.
func (c *declChecker) implements(t types.Type, m string) bool {
	for _, it := range c.ifaces[m] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// report walks the non-test declarations of every reported package and
// sorts each into a list by its uses.
func (c *declChecker) report() *declReport {
	r := &declReport{decls: map[string]string{}}
	for _, p := range c.order {
		prefix := strings.TrimPrefix(strings.TrimPrefix(p.path, c.mod), "/")
		if prefix == "" {
			prefix = c.mod
		}
		for _, n := range c.nodes(p) {
			n.name = prefix + "." + n.name
			if n.owner != "" {
				n.owner = prefix + "." + n.owner
			}
			r.decls[n.name] = n.owner
			if !p.report {
				continue
			}
			if list := c.verdict(n); list != "" {
				r.findings = append(r.findings, declFinding{n.name, n.owner, list})
			}
		}
	}
	sort.Slice(r.findings, func(i, j int) bool { return r.findings[i].name < r.findings[j].name })
	return r
}

func (c *declChecker) verdict(n declNode) string {
	var uses, reads, product int
	for _, k := range n.keys {
		if c.used[k] {
			return ""
		}
		for _, u := range c.uses[k] {
			if u.pos >= n.lo && u.pos < n.hi {
				continue
			}
			uses++
			if !u.write {
				reads++
			}
			if !u.test {
				product++
			}
		}
	}
	switch {
	case uses == 0:
		return declNoUse
	case n.field && reads == 0:
		return declWriteOnly
	case product == 0:
		return declTestOnly
	}
	return ""
}

// nodes lists the declarations of a package's non-test files, named
// relative to the package. A method that satisfies an interface is marked
// used here, once every interface has been seen.
func (c *declChecker) nodes(p *declPkg) []declNode {
	var out []declNode
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				n := declNode{name: name, keys: []token.Pos{d.Name.Pos()}, lo: d.Pos(), hi: d.End()}
				if d.Recv == nil {
					if !declExempt(name) {
						out = append(out, n)
					}
					continue
				}
				recv := p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
				ptr := false
				if pt, ok := recv.(*types.Pointer); ok {
					ptr, recv = true, pt.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || name == "_" {
					continue
				}
				n.owner = named.Obj().Name()
				n.name = n.owner + "." + name
				if ptr {
					n.name = "(*" + n.owner + ")." + name
				}
				if c.implements(named.Origin(), name) {
					c.used[d.Name.Pos()] = true
				}
				out = append(out, n)
			case *ast.GenDecl:
				out = append(out, c.genNodes(p, d)...)
			}
		}
	}
	return out
}

func declExempt(name string) bool {
	if name == "main" || name == "init" || name == "_" {
		return true
	}
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// genNodes lists the declarations of one const, var or type block: a typed
// iota block as one, named after its first constant and owned by its type,
// and the fields of each struct type the block declares.
func (c *declChecker) genNodes(p *declPkg, d *ast.GenDecl) []declNode {
	if d.Tok == token.CONST && declIotaBlock(d) {
		block := declNode{lo: d.Pos(), hi: d.End()}
		for _, s := range d.Specs {
			for _, id := range s.(*ast.ValueSpec).Names {
				block.keys = append(block.keys, id.Pos())
				if obj := p.info.Defs[id]; obj != nil && block.owner == "" {
					if n, ok := obj.Type().(*types.Named); ok && n.Obj().Pkg() == p.pkg {
						block.owner = n.Obj().Name()
					}
				}
			}
		}
		if block.owner != "" {
			block.name = d.Specs[0].(*ast.ValueSpec).Names[0].Name
			return []declNode{block}
		}
	}
	var out []declNode
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.ValueSpec:
			for _, id := range s.Names {
				if !declExempt(id.Name) {
					out = append(out, declNode{name: id.Name, keys: []token.Pos{id.Pos()}, lo: s.Pos(), hi: s.End()})
				}
			}
			if s.Type != nil {
				out = append(out, declFields(s.Names[0].Name, s.Type)...)
			}
		case *ast.TypeSpec:
			out = append(out, declNode{name: s.Name.Name, owner: s.Name.Name, keys: []token.Pos{s.Name.Pos()}, lo: s.Pos(), hi: s.End()})
			out = append(out, declFields(s.Name.Name, s.Type)...)
		}
	}
	return out
}

// declIotaBlock reports whether a const block's values mention iota.
func declIotaBlock(d *ast.GenDecl) bool {
	found := false
	for _, s := range d.Specs {
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

// declFields lists the named fields of the struct types within a top-level
// type or var declaration, owned by it. An embedded field counts as used.
func declFields(owner string, expr ast.Expr) []declNode {
	var out []declNode
	ast.Inspect(expr, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.Name != "_" {
					out = append(out, declNode{
						name:  owner + "." + id.Name,
						owner: owner,
						keys:  []token.Pos{id.Pos()},
						lo:    f.Pos(),
						hi:    f.End(),
						field: !id.IsExported(),
					})
				}
			}
		}
		return true
	})
	return out
}
