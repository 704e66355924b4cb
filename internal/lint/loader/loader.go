// Package loader parses and type-checks Go packages for rtlint without
// any dependency outside the standard library. It understands two
// layouts:
//
//   - Module: cfg.Dir holds a go.mod; import paths under the module path
//     resolve to subdirectories (this is how cmd/rtlint loads the repo).
//   - Tree: import paths are directory paths relative to cfg.Dir (this
//     is how analysistest loads testdata/src fixtures, GOPATH-style).
//
// Anything that is neither is resolved through the standard library's
// source importer, which type-checks GOROOT packages from source and
// therefore works in a fully offline build environment.
//
// Only non-test files are loaded: rtlint's invariants are about the
// simulator and its experiment pipeline, and tests are free to use wall
// clocks, unsorted maps, and ad-hoc randomness.
package loader

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Mode selects how import paths map to directories under Config.Dir.
type Mode int

const (
	// Module resolves import paths against the module path declared in
	// Config.Dir's go.mod.
	Module Mode = iota
	// Tree resolves import paths as directories relative to Config.Dir.
	Tree
)

// Config describes the root of the code to load.
type Config struct {
	Dir  string
	Mode Mode
}

// Package is one parsed, type-checked package.
type Package struct {
	Path      string // import path
	Dir       string // directory holding the sources
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// Imports are the package's direct in-root dependencies, sorted by
	// path. Standard-library imports are not listed: whole-program
	// drivers use this to run analyzers over dependencies before
	// importers so exported facts flow forward.
	Imports []*Package
}

type ldr struct {
	cfg     Config
	fset    *token.FileSet
	modpath string // module path ("" in Tree mode)
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
	errs    []string
}

// Load parses and type-checks the packages matching patterns. Patterns
// follow the go tool's shape: "./..." (everything under Dir), "./x/..."
// (everything under x), or "./x" (exactly x). Type errors in any
// matched package (or its intra-root dependencies) fail the whole load.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	abs, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = abs
	ld := &ldr{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil).(types.ImporterFrom)
	if cfg.Mode == Module {
		ld.modpath, err = modulePath(filepath.Join(cfg.Dir, "go.mod"))
		if err != nil {
			return nil, err
		}
	}

	rels, err := ld.match(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, rel := range rels {
		p, err := ld.load(ld.pathFor(rel))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(ld.errs) > 0 {
		return nil, fmt.Errorf("loader: type errors:\n  %s", strings.Join(ld.errs, "\n  "))
	}
	return out, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("loader: no module directive in %s", gomod)
}

// pathFor converts a root-relative directory to an import path.
func (ld *ldr) pathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if ld.cfg.Mode == Tree {
		return rel
	}
	if rel == "." {
		return ld.modpath
	}
	return ld.modpath + "/" + rel
}

// dirFor is pathFor's inverse: nil if path is outside the root.
func (ld *ldr) dirFor(path string) (string, bool) {
	switch ld.cfg.Mode {
	case Module:
		if path == ld.modpath {
			return ld.cfg.Dir, true
		}
		if rest, ok := strings.CutPrefix(path, ld.modpath+"/"); ok {
			return filepath.Join(ld.cfg.Dir, filepath.FromSlash(rest)), true
		}
		return "", false
	default:
		dir := filepath.Join(ld.cfg.Dir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
}

// match expands patterns into root-relative package directories, in
// sorted order.
func (ld *ldr) match(patterns []string) ([]string, error) {
	all, err := ld.walk()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		if pat == "" {
			pat = "."
		}
		matched := false
		for _, rel := range all {
			ok := false
			switch {
			case pat == "...":
				ok = true
			case strings.HasSuffix(pat, "/..."):
				base := strings.TrimSuffix(pat, "/...")
				ok = rel == base || strings.HasPrefix(rel, base+"/")
			default:
				ok = rel == pat
			}
			if ok && !seen[rel] {
				seen[rel] = true
				out = append(out, rel)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("loader: pattern %q matched no packages", pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walk lists every root-relative directory containing at least one
// non-test Go file, skipping testdata, hidden, and underscore dirs, and
// — like the go tool's ./... — any directory below the root that holds
// its own go.mod: a nested module is not part of this one.
func (ld *ldr) walk() ([]string, error) {
	var out []string
	err := filepath.WalkDir(ld.cfg.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ld.cfg.Dir {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(ld.cfg.Dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if len(out) == 0 || out[len(out)-1] != rel {
			out = append(out, rel)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// Import implements types.Importer for the package being checked.
func (ld *ldr) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, ld.cfg.Dir, 0)
}

// ImportFrom implements types.ImporterFrom. In-root paths are loaded
// (and type-checked) recursively; everything else goes to the standard
// library source importer.
func (ld *ldr) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := ld.dirFor(path); ok {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one in-root package, memoized by path.
func (ld *ldr) load(path string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir, ok := ld.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("loader: %q is outside the load root", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: ld,
		Error: func(err error) {
			ld.errs = append(ld.errs, err.Error())
		},
	}
	tpkg, _ := conf.Check(path, ld.fset, files, info) // errors collected in ld.errs
	p := &Package{Path: path, Dir: dir, Fset: ld.fset, Files: files, Types: tpkg, TypesInfo: info}
	// Checking the package pulled its dependencies through ImportFrom,
	// so every in-root import is already memoized; link them up.
	seen := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			if dep, ok := ld.pkgs[ip]; ok && !seen[ip] {
				seen[ip] = true
				p.Imports = append(p.Imports, dep)
			}
		}
	}
	sort.Slice(p.Imports, func(i, j int) bool { return p.Imports[i].Path < p.Imports[j].Path })
	ld.pkgs[path] = p
	return p, nil
}
