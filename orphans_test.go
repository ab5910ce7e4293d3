package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the exported identifiers under internal/ that no
// non-test file references yet are kept on purpose, each with its reason.
var orphanAllowlist = map[string]string{
	"tensor.Col2ImInto":    "TestAllocationPins pins BenchmarkCol2ImInto (ROADMAP 10 (vii))",
	"tensor.SetMaxThreads": "test hook: tests in other packages pin the kernel fan-out",
	"tensor.KernelFanouts": "test hook: tests in other packages count kernel fan-outs",
	"obs.NewTracer":        "only tests build the tracer the engines accept (ROADMAP 7 (ii))",
	"exp.Epochs":           "becomes a scenario fleet key (ROADMAP 14 (c))",
	"exp.StoreBackend":     "becomes a scenario fleet key (ROADMAP 14 (c))",
	"exp.Warmstart":        "becomes a scenario fleet key (ROADMAP 14 (c))",
	"exp.WithMetrics":      "becomes a scenario fleet key (ROADMAP 14 (c))",
	"exp.WithTrace":        "becomes a scenario fleet key (ROADMAP 14 (c))",
	"exp.AutoScalePS":      "BenchmarkExtensionAutoscalePS builds the §III-D figure with it; a scenario fleet key (ROADMAP 14 (c))",
}

// TestNoOrphanExports fails when an exported package-level func, type, var
// or const under internal/ is referenced by no non-test Go file in the
// module. Its own declaration and, for a type, the receivers of its own
// methods do not count as references. Methods are out of scope: interface
// satisfaction makes their use unprovable by name.
func TestNoOrphanExports(t *testing.T) {
	if len(orphanAllowlist) > 10 {
		t.Fatalf("allowlist has %d entries, want at most 10", len(orphanAllowlist))
	}
	idx, err := indexModule(".")
	if err != nil {
		t.Fatal(err)
	}
	orphans := idx.orphans("internal/")
	seen := map[string]bool{}
	for _, o := range orphans {
		seen[o.name] = true
		if _, ok := orphanAllowlist[o.name]; !ok {
			t.Errorf("%s (%s) is exported but no non-test file references it: delete it or allowlist it with a reason", o.name, o.pos)
		}
	}
	declared := map[string]bool{}
	for _, d := range idx.decls {
		declared[d.name] = true
	}
	for name := range orphanAllowlist {
		if !declared[name] {
			t.Errorf("allowlisted %s is not declared: drop it from the allowlist", name)
		} else if !seen[name] {
			t.Errorf("allowlisted %s now has a non-test caller: drop it from the allowlist", name)
		}
	}
}

// TestOrphanIndexRule runs the index on in-memory sources: a planted
// orphan is reported, a name used only from cmd/, bench/ or examples/ is
// not, and none of a method receiver, a _test.go file, a self-reference
// or a struct literal's field key counts as a use.
func TestOrphanIndexRule(t *testing.T) {
	src := map[string]string{
		"internal/a/a.go": `package a
type Recv struct{}
func (r *Recv) M() {}
func (Recv) N() {}
type Node struct{ next *Node }
func Planted() { Planted() }
func FromCmd() {}
func FromBench() {}
func FromExamples() {}
func FromTest() {}
func FromSibling() {}
const (
	KeyOnly = iota
	Dead
)
const Field = 2
func use() { _ = map[int]int{KeyOnly: 1} }
`,
		"internal/a/b.go":       "package a\nvar _ = FromSibling\ntype S struct{ Field int }\nvar _ = S{Field: 1}\n",
		"internal/a/a_test.go":  "package a\nimport \"testing\"\nfunc TestX(t *testing.T) { FromTest() }\n",
		"cmd/c/main.go":         "package main\nimport \"m/internal/a\"\nfunc main() { a.FromCmd() }\n",
		"bench/probe.go":        "package main\nimport alias \"m/internal/a\"\nvar _ = alias.FromBench\n",
		"examples/q/main.go":    "package main\nimport \"m/internal/a\"\nfunc main() { a.FromExamples() }\n",
		"internal/a/testdata/x": "not go",
	}
	files := make(map[string][]byte, len(src))
	for name, s := range src {
		files[name] = []byte(s)
	}
	idx, err := indexSources("m", files)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range idx.orphans("internal/") {
		got = append(got, o.name)
	}
	want := []string{"a.Dead", "a.Field", "a.FromTest", "a.Node", "a.Planted", "a.Recv"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("orphans = %v, want %v", got, want)
	}
}

// declIndex maps every exported package-level func, type, var and const
// declared in a module's non-test files, keyed "importpath.Name", to where
// it is declared, and counts the references non-test files make to it. A
// docs check can resolve a backticked `pkg.Name` against decls[*].name.
type declIndex struct {
	decls map[string]declSite
	refs  map[string]int
}

type declSite struct {
	name string // pkg.Name, by package name
	dir  string // slash-separated, relative to the module root
	pos  string // file:line
}

type orphan struct{ name, pos string }

// orphans returns, sorted by name, the declarations under prefix that no
// non-test file references.
func (idx *declIndex) orphans(prefix string) []orphan {
	var out []orphan
	for key, d := range idx.decls {
		if strings.HasPrefix(d.dir+"/", prefix) && idx.refs[key] == 0 {
			out = append(out, orphan{d.name, d.pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// indexModule reads every .go file under root, skipping testdata and
// dot-directories, and indexes it.
func indexModule(root string) (*declIndex, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	files := map[string][]byte{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(p)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return indexSources(modPath, files)
}

// indexSources indexes the given files, keyed by slash-separated path
// relative to the root of module modPath. Test files and testdata are
// never indexed, as declarations or as references.
func indexSources(modPath string, files map[string][]byte) (*declIndex, error) {
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	pkgName := map[string]string{} // import path -> package name
	for name, src := range files {
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.Contains("/"+name, "/testdata/") {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed[name] = f
		pkgName[importPath(modPath, name)] = f.Name.Name
	}
	idx := &declIndex{decls: map[string]declSite{}, refs: map[string]int{}}
	for name, f := range parsed {
		own := importPath(modPath, name)
		for _, d := range f.Decls {
			for _, id := range declaredNames(d) {
				if id.IsExported() {
					p := fset.Position(id.Pos())
					idx.decls[own+"."+id.Name] = declSite{
						name: f.Name.Name + "." + id.Name,
						dir:  path.Dir(name),
						pos:  fmt.Sprintf("%s:%d", p.Filename, p.Line),
					}
				}
			}
		}
	}
	for name, f := range parsed {
		own := importPath(modPath, name)
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			local, ok := pkgName[ip]
			if !ok {
				continue // outside the module
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		for _, d := range f.Decls {
			self := map[string]bool{}
			for _, id := range declaredNames(d) {
				self[id.Name] = true
			}
			countRefs(d, own, imports, self, idx.refs)
		}
	}
	return idx, nil
}

func importPath(modPath, file string) string {
	if dir := path.Dir(file); dir != "." {
		return modPath + "/" + dir
	}
	return modPath
}

// declaredNames returns the package-level names a declaration introduces.
// Methods introduce none.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// countRefs adds to refs every reference declaration d makes to a
// package-level name: a bare identifier resolves to package own, a
// selector on an imported package to that package. Names d itself
// declares (self), method receivers, field and method names, and
// selected members are not references.
func countRefs(d ast.Decl, own string, imports map[string]string, self map[string]bool, refs map[string]int) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, walk)
			if n.Body != nil {
				ast.Inspect(n.Body, walk)
			}
			return false // skips the name and the receiver
		case *ast.Field:
			ast.Inspect(n.Type, walk) // skips field, param and method names
			return false
		case *ast.CompositeLit:
			if n.Type != nil {
				ast.Inspect(n.Type, walk)
			}
			_, isMap := n.Type.(*ast.MapType)
			_, isArray := n.Type.(*ast.ArrayType)
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && n.Type != nil && !isMap && !isArray {
					if _, field := kv.Key.(*ast.Ident); field {
						e = kv.Value // a struct literal's key names a field
					}
				}
				ast.Inspect(e, walk)
			}
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					refs[pkg+"."+n.Sel.Name]++
					return false
				}
			}
			ast.Inspect(n.X, walk)
			return false
		case *ast.Ident:
			if !self[n.Name] {
				refs[own+"."+n.Name]++
			}
		}
		return true
	}
	ast.Inspect(d, walk)
}
