package mdn

import (
	"go/ast"
	"go/parser"
	"go/token"
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
