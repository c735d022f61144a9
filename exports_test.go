package sasgd

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionAllowlist names the declarations unusedNames may report,
// each with the reason it stays in a non-test file. It holds at most
// five entries.
var productionAllowlist = map[string]string{
	"internal/tensor: Tensor.FillRandn": "the seeded N(μ, σ²) input of the tests of tensor, nn and model and of the root benchmarks",
	"internal/report: Curve.AUC":        "the Figure 2 shape statistic of internal/experiments' tests and of the root benchmark",
}

// TestProductionCallers holds non-test code to what non-test code
// calls: every exported name declared outside examples/, cmd/ and
// bench/ has a caller in a non-test file of the module or of bench/,
// and so does every unexported function. A helper only tests call
// lives in a _test.go file of its package.
func TestProductionCallers(t *testing.T) {
	if len(productionAllowlist) > 5 {
		t.Fatalf("allowlist has %d entries, want at most 5", len(productionAllowlist))
	}
	files := map[string][]byte{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			b, err := os.ReadFile(p)
			files[filepath.ToSlash(p)] = b
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := unusedNames(files)
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, n := range names {
		reported[n] = true
		if _, ok := productionAllowlist[n]; !ok {
			t.Errorf("%s: no non-test caller; delete it, or move it into a _test.go file of its package", n)
		}
	}
	for n := range productionAllowlist {
		if !reported[n] {
			t.Errorf("allowlist entry %s is not reported any more; remove it", n)
		}
	}
}

func TestProductionCallersSelfTest(t *testing.T) {
	lib := `package lib

import "io"

type Buf struct{}

func (Buf) Read(p []byte) (int, error) { return 0, io.EOF }
func (Buf) Len() int                   { return 0 }

func Unused()    {}
func TestOnly()  {}
func BenchOnly() {}
func Used() io.Reader { return Buf{} }

func helper() {}
`
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"unused exported func", map[string]string{
			"internal/lib/lib.go": "package lib\n\nfunc Unused() {}\n",
		}, "internal/lib: Unused"},
		{"test-only caller", map[string]string{
			"internal/lib/lib.go":      "package lib\n\nfunc TestOnly() {}\n",
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) { TestOnly() }\n",
		}, "internal/lib: TestOnly"},
		{"io.Reader method is used, Len is not", map[string]string{
			"internal/lib/lib.go": "package lib\n\nimport \"io\"\n\ntype Buf struct{}\n\n" +
				"func (Buf) Read(p []byte) (int, error) { return 0, io.EOF }\n" +
				"func (Buf) Len() int { return 0 }\n\nvar _ io.Reader = Buf{}\n",
		}, "internal/lib: Buf.Len"},
		{"bench/ caller counts", map[string]string{
			"internal/lib/lib.go": "package lib\n\nfunc BenchOnly() {}\n",
			"bench/main.go":       "package main\n\nimport \"sasgd/internal/lib\"\n\nfunc main() { lib.BenchOnly() }\n",
		}, ""},
		{"unexported func: a test reference is no caller", map[string]string{
			"internal/lib/lib.go":      "package lib\n\nfunc helper() {}\nfunc used() {}\n\nvar _ = used\n",
			"internal/lib/lib_test.go": "package lib\n\nvar _ = helper\n",
		}, "internal/lib: helper"},
		{"errors.Is reaches Unwrap() []error", map[string]string{
			"internal/lib/lib.go": "package lib\n\nimport \"errors\"\n\ntype Err struct{}\n\n" +
				"func (Err) Error() string { return \"err\" }\n" +
				"func (Err) Unwrap() []error { return nil }\n\nvar _ = errors.Is(Err{}, errors.ErrUnsupported)\n",
		}, ""},
		{"everything at once", map[string]string{
			"internal/lib/lib.go":      lib,
			"internal/lib/lib_test.go": "package lib\n\nvar _ = helper\nvar _ = TestOnly\n",
			"bench/main.go":            "package main\n\nimport \"sasgd/internal/lib\"\n\nfunc main() { lib.BenchOnly(); lib.Used() }\n",
			"cmd/tool/main.go":         "package main\n\nfunc main() {}\n\nfunc Exported() {}\n",
		}, "internal/lib: Buf.Len, internal/lib: TestOnly, internal/lib: Unused, internal/lib: helper"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			files := map[string][]byte{}
			for p, src := range c.files {
				files[p] = []byte(src)
			}
			names, err := unusedNames(files)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(names, ", "); got != c.want {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}

// unusedNames type-checks the module whose files (slash paths relative
// to its root, bench/ included) are given, and returns, sorted, one
// "dir: Name" (or "dir: Recv.Name") line per package-level declaration
// in a non-test file outside examples/, cmd/ and bench/ that is
//   - exported, or an unexported function;
//   - and referenced by no non-test file. A method also counts as used
//     when its receiver implements an interface of a loaded package (the
//     module or the standard library) that declares it.
//
// Directory d holds the package with import path "sasgd/d", which
// places bench/ (module sasgd/bench) too. Only files that build on this
// host without tags are loaded, and the standard library is read from
// source.
func unusedNames(files map[string][]byte) ([]string, error) {
	// The source importer reads through build.Default; without cgo it
	// type-checks the pure-Go file set of net and os/user instead of
	// running the cgo tool on theirs.
	build.Default.CgoEnabled = false
	ctxt := build.Default
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) {
		b, ok := files[filepath.ToSlash(p)]
		if !ok {
			return nil, fs.ErrNotExist
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}

	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // non-test files by directory
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		dir, name := path.Dir(p), path.Base(p)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(fset, p, files[p], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dirs[dir] = append(dirs[dir], f)
	}

	const module = "sasgd"
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		if pkg, ok := pkgs[ipath]; ok {
			return pkg, nil
		}
		dir, ok := strings.CutPrefix(ipath, module)
		if !ok || dir != "" && dir[0] != '/' {
			pkg, err := std.Import(ipath)
			pkgs[ipath] = pkg
			return pkg, err
		}
		dir = strings.TrimPrefix(dir, "/")
		if dir == "" {
			dir = "."
		}
		if len(dirs[dir]) == 0 {
			return nil, fmt.Errorf("no non-test Go files for %s", ipath)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ipath, fset, dirs[dir], info)
		if err != nil {
			return nil, err
		}
		pkgs[ipath], infos[dir] = pkg, info
		return pkg, nil
	}
	dirNames := make([]string, 0, len(dirs))
	for dir := range dirs {
		dirNames = append(dirNames, dir)
	}
	sort.Strings(dirNames)
	for _, dir := range dirNames {
		ipath := module + "/" + dir
		if dir == "." {
			ipath = module
		}
		if _, err := imp(ipath); err != nil {
			return nil, err
		}
	}

	// Every reference from non-test code, and every interface non-test
	// code can see, keyed by method name.
	used := map[token.Pos]bool{}
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		if !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, info := range infos {
		for _, obj := range info.Uses {
			used[obj.Pos()] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, q := range p.Imports() {
			walk(q)
		}
		scope := p.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// errors.Is and errors.As call Unwrap, Is and As through interfaces
	// declared inside their function bodies, which no package scope shows.
	protocol, err := parser.ParseFile(fset, "errors.go", `package errors

type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)
`, 0)
	if err != nil {
		return nil, err
	}
	errorsProtocol, err := new(types.Config).Check("errors", fset, []*ast.File{protocol}, nil)
	if err != nil {
		return nil, err
	}
	walk(errorsProtocol)
	// recv is a method's receiver type, its pointer stripped.
	recv := func(fn *types.Func) *types.Named {
		t := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return t.(*types.Named)
	}
	implemented := func(fn *types.Func) bool {
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv(fn), it) || types.Implements(types.NewPointer(recv(fn)), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, dir := range dirNames {
		top, _, _ := strings.Cut(dir, "/")
		if top == "examples" || top == "cmd" || top == "bench" {
			continue
		}
		for _, f := range dirs[dir] {
			var ids []*ast.Ident
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					ids = append(ids, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = append(ids, s.Name)
						case *ast.ValueSpec:
							ids = append(ids, s.Names...)
						}
					}
				}
			}
			for _, id := range ids {
				obj := infos[dir].Defs[id]
				if used[obj.Pos()] {
					continue
				}
				name := id.Name
				fn, isFunc := obj.(*types.Func)
				switch {
				case isFunc && fn.Type().(*types.Signature).Recv() != nil:
					if !fn.Exported() || implemented(fn) {
						continue
					}
					name = recv(fn).Obj().Name() + "." + name
				case isFunc:
					if name == "init" || name == "_" {
						continue
					}
				case !obj.Exported():
					continue
				}
				out = append(out, dir+": "+name)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
