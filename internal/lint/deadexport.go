package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// DeadExportAnalyzer reports exported package-level funcs, types, vars
// and consts under internal/ that nothing uses. Packages under
// internal/ cannot be imported from outside the module, so an export
// there is dead when both hold:
//
//   - no .go file outside the package's directory names it as
//     pkg.Name — every file under the module root counts, test files
//     and nested modules (perfbench) included, testdata excluded;
//   - no non-test file of its own package refers to it.
//
// The cross-package half is syntactic: each file's imports map local
// names to import paths and every pkg.Name selector is recorded.
// Methods and struct fields are out of scope, because interface
// satisfaction makes their use impossible to prove from syntax alone.
var DeadExportAnalyzer = &Analyzer{
	Name: "deadexport",
	Doc: "exported identifiers under internal/ must be referenced outside " +
		"their package or by its own non-test code",
	Run: runDeadExport,
	Match: func(pkgPath string) bool {
		return strings.Contains("/"+pkgPath+"/", "/internal/")
	},
}

func runDeadExport(pass *Pass) error {
	if len(pass.Files) == 0 {
		return nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	refs, err := moduleRefs(dir)
	if err != nil {
		return err
	}
	used := make(map[types.Object]bool)
	for id, obj := range pass.TypesInfo.Uses {
		if !isTestFile(pass.Fset, id.Pos()) {
			used[obj] = true
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || isTestFile(pass.Fset, obj.Pos()) || used[obj] ||
			refs.usedOutside(pass.Pkg.Path(), name, dir) {
			continue
		}
		pass.Reportf(obj.Pos(), "exported %s %s.%s is unused outside its package's tests; delete it",
			objectKind(obj), pass.Pkg.Name(), name)
	}
	return nil
}

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// refIndex records, for every "importpath.Name" selector in a module,
// the directories of the files that use it.
type refIndex map[string][]string

func (r refIndex) usedOutside(pkgPath, name, dir string) bool {
	for _, d := range r[pkgPath+"."+name] {
		if d != dir {
			return true
		}
	}
	return false
}

// refCache memoizes one index per module root: the driver analyzes
// every package of a module against the same files in one process, and
// re-parsing the module per package would double the suite's run time.
var refCache struct {
	sync.Mutex
	byRoot map[string]refIndex
}

// moduleRefs returns the reference index of the module enclosing dir.
func moduleRefs(dir string) (refIndex, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	refCache.Lock()
	defer refCache.Unlock()
	if idx, ok := refCache.byRoot[root]; ok {
		return idx, nil
	}
	idx, err := indexRefs(root)
	if err != nil {
		return nil, err
	}
	if refCache.byRoot == nil {
		refCache.byRoot = make(map[string]refIndex)
	}
	refCache.byRoot[root] = idx
	return idx, nil
}

// moduleRoot walks up from dir to the nearest directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// indexRefs parses every .go file under root, nested modules included,
// skipping testdata, vendor and dot/underscore directories as the go
// tool does.
func indexRefs(root string) (refIndex, error) {
	idx := make(refIndex)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		addFileRefs(idx, f, filepath.Dir(p))
		return nil
	})
	return idx, err
}

// addFileRefs records each pkg.Name selector of f whose pkg is an
// import. An unnamed import is known by its path's last element; a
// local variable shadowing an import name only errs towards "used".
func addFileRefs(idx refIndex, f *ast.File, dir string) {
	imports := make(map[string]string)
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok {
			if p, ok := imports[x.Name]; ok {
				key := p + "." + sel.Sel.Name
				idx[key] = append(idx[key], dir)
			}
		}
		return true
	})
}
