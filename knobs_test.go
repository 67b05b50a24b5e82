package mdn

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mdn/internal/scenario"
)

// knobKeep lists the exported settings TestNoUnusedKnobs accepts
// although no program or shipped scenario sets them, one reason each.
var knobKeep = map[string]string{
	"core.OnsetFilter.ConfirmWindows": "ROADMAP item 4 redefines confirmation as seconds of evidence",
	"core.OnsetFilter.HoldWindows":    "ROADMAP item 4 redefines the hold as seconds of evidence",
	"scenario.AppConfig.Analytics":    "TestSketchAnalyticsMatchesExact holds analytics=\"sketch\" to the exact counter (ROADMAP aim 3)",
}

// TestNoUnusedKnobs keeps one value per setting. A setting is an
// exported, non-func field of an internal struct type that an exported
// New*, Enable*, Default* or Load function or method returns (by value
// or pointer), that an exported Run* function takes, or that exported
// fields of such a type reach. A setting is in use when non-test code,
// bench/ and the examples included, writes that field object, or when
// a shipped scenarios/*.json leaves it non-zero after scenario.Load.
// Two writes do not count: a constant that a New*, Enable* or Default*
// function stores, and a copy of the same field (c.F = d.F). Any
// reference from bench/ holds a field open, because the benchmark's
// sources change only with the benchmark. A setting nothing uses is a
// constant in disguise.
func TestNoUnusedKnobs(t *testing.T) {
	m := loadModule(t)
	info := m.info

	// The settings, by field object, named "pkg.Type.Field".
	settings := map[*types.Var]string{}
	byPath := map[string]*types.Var{} // "import/path.Type.Field"
	seen := map[*types.Named]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		for { // through pointers, slices, arrays and map values
			e, ok := typ.(interface{ Elem() types.Type })
			if !ok {
				break
			}
			typ = e.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || seen[named] || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), "mdn/internal/") {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		seen[named] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, fn := f.Type().Underlying().(*types.Signature); fn || !f.Exported() {
				continue
			}
			obj := named.Obj()
			settings[f] = obj.Pkg().Name() + "." + obj.Name() + "." + f.Name()
			byPath[obj.Pkg().Path()+"."+obj.Name()+"."+f.Name()] = f
			reach(f.Type())
		}
	}
	for id, o := range info.Defs {
		fn, ok := o.(*types.Func)
		if !ok || !id.IsExported() {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch name := fn.Name(); {
		case isCtor(name) || name == "Load":
			for i := 0; i < sig.Results().Len(); i++ {
				reach(sig.Results().At(i).Type())
			}
		case strings.HasPrefix(name, "Run"):
			for i := 0; i < sig.Params().Len(); i++ {
				reach(sig.Params().At(i).Type())
			}
		}
	}

	// Writes by non-test code, and every field bench/ refers to.
	used := map[*types.Var]bool{}
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	var visit func(root ast.Node, inCtor, inBench bool)
	visit = func(root ast.Node, inCtor, inBench bool) {
		// write records a write of value (nil: unknown) to field f,
		// unless it is a constructor's constant or a copy of f itself.
		write := func(f *types.Var, value ast.Expr) {
			if f == nil || value != nil && (inCtor && (info.Types[value].Value != nil || info.Types[value].IsNil()) || fieldOf(value) == f) {
				return
			}
			used[f] = true
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if inCtor { // a closure the constructor builds runs later
					visit(n.Body, false, inBench)
					return false
				}
			case *ast.SelectorExpr:
				if f := fieldOf(n); f != nil && inBench {
					used[f] = true
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var value ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					write(fieldOf(lhs), value)
				}
			case *ast.IncDecStmt:
				write(fieldOf(n.X), nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(fieldOf(n.X), nil)
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						f, _ := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						write(f, kv.Value)
					} else {
						write(st.Field(i), el)
					}
				}
			}
			return true
		})
	}
	for _, f := range m.files {
		inBench := filepath.Dir(m.fset.Position(f.Pos()).Filename) == "bench"
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			visit(d, ok && isCtor(fd.Name.Name), inBench)
		}
	}

	// Fields the shipped scenarios leave non-zero.
	paths, _ := filepath.Glob("scenarios/*.json")
	if len(paths) == 0 {
		t.Fatal("no scenarios/*.json")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		markSet(reflect.ValueOf(c), byPath, used)
	}

	unused := map[string]bool{}
	for f, name := range settings {
		if !used[f] {
			unused[name] = true
			if knobKeep[name] == "" {
				t.Errorf("%s (%s) is an exported setting no program or shipped scenario sets: make it a constant", name, m.fset.Position(f.Pos()))
			}
		}
	}
	for name := range knobKeep {
		if !unused[name] {
			t.Errorf("knobKeep lists %s, which is not an unused setting: drop the entry", name)
		}
	}
}

// isCtor reports whether a function of this name builds a value whose
// constant fields are defaults rather than settings.
func isCtor(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Enable") || strings.HasPrefix(name, "Default")
}

// markSet marks in used every struct field v holds a non-zero value
// in, walking pointers, slices and nested structs; fields are keyed as
// byPath keys them.
func markSet(v reflect.Value, byPath map[string]*types.Var, used map[*types.Var]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			markSet(v.Elem(), byPath, used)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			markSet(v.Index(i), byPath, used)
		}
	case reflect.Struct:
		typ := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				continue
			}
			if f := byPath[typ.PkgPath()+"."+typ.Name()+"."+typ.Field(i).Name]; f != nil {
				used[f] = true
			}
			markSet(v.Field(i), byPath, used)
		}
	}
}

// exportKeep lists the exported functions, methods and types under
// internal/ that TestNoTestOnlyExports accepts although no non-test
// code uses them, one reason each. A kept entry counts as in use, so
// what it alone calls needs no entry of its own.
var exportKeep = map[string]string{
	"audio.Tone.MixEnvelopeAt":        "the per-sample reference the tone-table synthesis kernels are held to",
	"core.Controller.Stop":            "Start's inverse; the controller, health and stream tests check that a stopped controller reads idle",
	"core.FrequencyPlan.MustAllocate": "the allocation shorthand of the package Example and of about 30 test call sites",
	"dsp.FFTPlan.InverseTransform":    "the inverse complex FFT; fft_test.go checks the round trip on it",
	"dsp.FFTPlan.Transform":           "the complex FFT over the forward kernel the real-input paths share; fft_test.go's properties and the FFT benchmarks run on it",
	"netsim.Sim.Run":                  "drains the event queue; one-shot tests in eight packages run to quiescence with it, where programs use RunUntil",
	"sketch.CountMin.Merge":           "ROADMAP aim 3 names sketch merge ≡ single stream as a contract",
	"sketch.HyperLogLog.Merge":        "ROADMAP aim 3 names sketch merge ≡ single stream as a contract",
	"sketch.TopK.Merge":               "ROADMAP aim 3 names sketch merge ≡ single stream as a contract",
	"telemetry.StepClock":             "the deterministic TimeSource the telemetry and experiments tests inject",
	"telemetry.ValidateText":          "the Prometheus text-format check the tests of eight packages share",
}

// TestNoTestOnlyExports keeps every exported function, method and type
// under internal/ in use by a program. It type-checks the module's
// non-test files (bench/ included) and flags each such object that no
// non-test code refers to outside its own declaration, counting a
// reference only when the declaration that makes it is itself in use.
// A method also counts as used when its receiver satisfies an
// interface that non-test code uses, inline interfaces included, or
// fmt.Stringer.
func TestNoTestOnlyExports(t *testing.T) {
	imp := loadModule(t)
	fset, info := imp.fset, imp.info

	// Every reference non-test code makes, keyed by the exported
	// declaration it sits in (nil outside one), and every interface it
	// uses: interface-typed expressions and the interface parameters
	// and results of the functions it refers to.
	type ref struct {
		obj   types.Object
		owner types.Object
	}
	var refs []ref
	ifaces := []ifaceUse{{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), nil}}
	if fmtPkg, err := imp.Import("fmt"); err == nil {
		ifaces = append(ifaces, ifaceUse{fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface), nil})
	}
	addIface := func(typ types.Type, owner types.Object) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, ifaceUse{it, owner})
		}
	}
	for _, f := range imp.files {
		for _, d := range f.Decls {
			// A function owns its body and a type its definition; the
			// specs of one declaration are owned separately.
			nodes := []ast.Node{d}
			if g, ok := d.(*ast.GenDecl); ok {
				nodes = nodes[:0]
				for _, spec := range g.Specs {
					nodes = append(nodes, spec)
				}
			}
			for _, n := range nodes {
				var owner types.Object
				switch n := n.(type) {
				case *ast.FuncDecl:
					owner = info.Defs[n.Name]
				case *ast.TypeSpec:
					owner = info.Defs[n.Name]
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
						refs = append(refs, ref{origin(info.Uses[id]), owner})
					}
					e, ok := n.(ast.Expr)
					if !ok {
						return true
					}
					tv := info.Types[e]
					if tv.Type == nil {
						return true
					}
					addIface(tv.Type, owner)
					if sig, ok := tv.Type.(*types.Signature); ok {
						for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
							for i := 0; i < tuple.Len(); i++ {
								addIface(tuple.At(i).Type(), owner)
							}
						}
					}
					return true
				})
			}
		}
	}

	// The candidates: exported package-level functions and types, and
	// exported methods of named types, declared under internal/.
	exported := map[types.Object]string{}
	for id, o := range info.Defs {
		if o == nil || !id.IsExported() || !strings.HasPrefix(o.Pkg().Path(), "mdn/internal/") {
			continue
		}
		switch o := o.(type) {
		case *types.TypeName:
			if o.Parent() == o.Pkg().Scope() {
				exported[o] = o.Pkg().Name() + "." + o.Name()
			}
		case *types.Func:
			if recv := receiver(o); recv != nil && !types.IsInterface(recv.Type()) {
				exported[o] = o.Pkg().Name() + "." + recv.Name() + "." + o.Name()
			} else if recv == nil && o.Parent() == o.Pkg().Scope() {
				exported[o] = o.Pkg().Name() + "." + o.Name()
			}
		}
	}

	// Iterate to a fixed point: a reference counts only while the
	// declaration it sits in is in use, and a type's own methods do not
	// keep it in use.
	// used marks an object referred to from a declaration in use that
	// exportKeep does not list; byKept, one only kept entries refer to.
	kept := map[string]bool{}
	dead := map[types.Object]bool{}
	var used, byKept map[types.Object]bool
	for changed := true; changed; {
		changed = false
		used, byKept = map[types.Object]bool{}, map[types.Object]bool{}
		for _, r := range refs {
			if fn, ok := r.owner.(*types.Func); r.owner == r.obj || dead[r.owner] || ok && receiver(fn) == r.obj {
				continue
			}
			if exportKeep[exported[r.owner]] != "" {
				byKept[r.obj] = true
			} else {
				used[r.obj] = true
			}
		}
		for o, name := range exported {
			if fn, ok := o.(*types.Func); ok && receiver(fn) != nil && !dead[receiver(fn)] && satisfies(fn, ifaces, dead) {
				used[o] = true
			}
			if exportKeep[name] != "" {
				kept[name] = true
			} else if !used[o] && !byKept[o] && !dead[o] {
				dead[o] = true
				changed = true
			}
		}
	}

	for o, name := range exported {
		switch {
		case dead[o]:
			t.Errorf("%s (%s) has no non-test caller: delete it, unexport it, or add it to exportKeep with a reason", name, fset.Position(o.Pos()))
		case used[o] && exportKeep[name] != "":
			t.Errorf("exportKeep lists %s, which non-test code uses: drop the entry", name)
		}
	}
	for name := range exportKeep {
		if !kept[name] {
			t.Errorf("exportKeep lists %s, which is not an exported function, method or type under internal/: drop the entry", name)
		}
	}
}

// ifaceUse is an interface that non-test code uses, and the exported
// declaration it is used in (nil outside one).
type ifaceUse struct {
	iface *types.Interface
	owner types.Object
}

// satisfies reports whether fn's receiver implements an interface in
// use that has a method of fn's name.
func satisfies(fn *types.Func, ifaces []ifaceUse, dead map[types.Object]bool) bool {
	recv := receiver(fn).Type()
	for _, u := range ifaces {
		if dead[u.owner] || u.owner == fn {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(u.iface, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		if types.Implements(recv, u.iface) || types.Implements(types.NewPointer(recv), u.iface) {
			return true
		}
	}
	return false
}

// receiver returns the named type a method is declared on, or nil for
// a function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(o types.Object) types.Object {
	if fn, ok := o.(*types.Func); ok {
		return fn.Origin()
	}
	return o
}

var (
	moduleOnce sync.Once
	module     *moduleImporter
	moduleErr  error
)

// loadModule type-checks the module's non-test files, bench/ and the
// examples included, once per test binary; the gates share the result.
func loadModule(t *testing.T) *moduleImporter {
	moduleOnce.Do(func() {
		fset := token.NewFileSet()
		module = &moduleImporter{
			fset: fset,
			std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			pkgs: map[string]*types.Package{},
		}
		var dirs []string
		for _, pattern := range []string{".", "bench", "cmd/*", "examples/*", "internal/*"} {
			m, _ := filepath.Glob(pattern)
			dirs = append(dirs, m...)
		}
		for _, dir := range dirs {
			if _, moduleErr = module.check(dir); moduleErr != nil {
				return
			}
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// moduleImporter type-checks the module's packages from their non-test
// files into one types.Info, and the standard library from source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package // by directory
	files []*ast.File
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "mdn" || strings.HasPrefix(path, "mdn/") {
		return m.check(strings.TrimPrefix(path, "mdn"))
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *moduleImporter) check(dir string) (*types.Package, error) {
	dir = filepath.Clean(strings.TrimPrefix(dir, "/"))
	if p := m.pkgs[dir]; p != nil {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path.Join("mdn", filepath.ToSlash(dir)), m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[dir] = p
	m.files = append(m.files, files...)
	return p, nil
}
