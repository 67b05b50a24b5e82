package mdn

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// knobKeep lists the exported settings TestNoUnusedKnobs accepts
// although no production caller sets them, one reason each.
var knobKeep = map[string]string{
	"core.OnsetFilter.ConfirmWindows": "ROADMAP item 4 redefines confirmation as seconds of evidence",
	"core.OnsetFilter.HoldWindows":    "ROADMAP item 4 redefines the hold as seconds of evidence",
}

// TestNoUnusedKnobs keeps one value per setting. For every internal
// struct type T that a New*/Enable* function or method returns as *T,
// it flags each exported field that constructors set only to a
// literal or a Default* constant (or never set), and that no non-test
// file of the module, examples excluded, writes anywhere else: such a
// field is a constant in disguise. Fields bench/ refers to, fields
// whose address is taken and func-typed fields are exempt. Fields are
// matched by name, so a write to any field of that name counts.
func TestNoUnusedKnobs(t *testing.T) {
	type file struct {
		dir     string
		node    *ast.File
		imports map[string]bool // imported package names
	}
	var files []file
	structs := map[string]*ast.StructType{} // "dir.Type"
	for _, pattern := range []string{"*.go", "cmd/*/*.go", "internal/*/*.go", "bench/*.go"} {
		paths, _ := filepath.Glob(pattern)
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			imports := map[string]bool{}
			for _, im := range f.Imports {
				imports[path.Base(strings.Trim(im.Path.Value, `"`))] = true
			}
			files = append(files, file{filepath.Dir(p), f, imports})
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[filepath.Dir(p)+"."+ts.Name.Name] = st
					}
				}
				return true
			})
		}
	}

	built := map[string]string{} // "dir.Type" -> "pkg.Type"
	ctors := map[ast.Decl]bool{}
	for _, f := range files {
		for _, d := range f.node.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(f.dir, "internal") || fd.Type.Results == nil ||
				!strings.HasPrefix(fd.Name.Name, "New") && !strings.HasPrefix(fd.Name.Name, "Enable") {
				continue
			}
			for _, r := range fd.Type.Results.List {
				if star, ok := r.Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && structs[f.dir+"."+id.Name] != nil {
						built[f.dir+"."+id.Name] = f.node.Name.Name + "." + id.Name
						ctors[d] = true
					}
				}
			}
		}
	}

	// used holds every field name that is written outside a
	// constructor, written by one with a non-constant value, has its
	// address taken, or is referred to from bench/.
	used := map[string]bool{}
	var visit func(root ast.Node, f file, inCtor bool)
	visit = func(root ast.Node, f file, inCtor bool) {
		write := func(e, value ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok && !(inCtor && isConstant(value)) {
				used[sel.Sel.Name] = true
			}
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if inCtor { // a closure the constructor builds runs later
					visit(n.Body, f, false)
					return false
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); f.dir == "bench" && !(ok && f.imports[x.Name]) {
					used[n.Sel.Name] = true
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var value ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					write(lhs, value)
				}
			case *ast.IncDecStmt:
				write(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X, nil)
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && !(inCtor && isConstant(n.Value)) {
					used[k.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.node.Decls {
			visit(d, f, ctors[d])
		}
	}

	knobs := map[string]bool{}
	for key, name := range built {
		for _, field := range structs[key].Fields.List {
			for _, id := range field.Names {
				if _, fn := field.Type.(*ast.FuncType); !fn && id.IsExported() && !used[id.Name] {
					knobs[name+"."+id.Name] = true
				}
			}
		}
	}
	for knob := range knobs {
		if knobKeep[knob] == "" {
			t.Errorf("%s is an exported setting no production caller sets: make it a constant", knob)
		}
	}
	for knob := range knobKeep {
		if !knobs[knob] {
			t.Errorf("knobKeep lists %s, which is no longer an unused setting: drop the entry", knob)
		}
	}
}

// isConstant reports whether e is a literal, possibly negated, or a
// Default* constant.
func isConstant(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "true" || e.Name == "false" || strings.HasPrefix(e.Name, "Default")
	case *ast.SelectorExpr:
		return strings.HasPrefix(e.Sel.Name, "Default")
	case *ast.UnaryExpr:
		return isConstant(e.X)
	}
	return false
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
	fset := token.NewFileSet()
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	imp := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: info,
		pkgs: map[string]*types.Package{},
	}
	var dirs []string
	for _, pattern := range []string{".", "bench", "cmd/*", "examples/*", "internal/*"} {
		m, _ := filepath.Glob(pattern)
		dirs = append(dirs, m...)
	}
	for _, dir := range dirs {
		if _, err := imp.check(dir); err != nil {
			t.Fatal(err)
		}
	}

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
