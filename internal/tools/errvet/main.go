// Command errvet is the repo's errcheck-style vet step. It flags two
// patterns that silently lose failure information:
//
// 1. Close() and Flush() calls whose error result is dropped. Those are
// exactly the calls where buffered data or a failed disk write
// disappears without a trace — a report writer that loses the tail of
// fidelity.json but exits zero is worse than one that crashes.
//
// A call is flagged when it appears as a bare expression statement and
// its results include an error:
//
//	f.Close()        // flagged: error dropped silently
//
// and accepted in every form that handles or visibly discards it:
//
//	err := f.Close() // handled
//	return f.Close() // handled
//	_ = f.Close()    // explicit, greppable discard
//	defer f.Close()  // read-path cleanup idiom; not an ExprStmt
//
// 2. Swallowed cancellation causes: a select case receiving from
// x.Done() whose body returns an explicit trailing nil without
// consulting x.Err() or context.Cause. A worker loop written that way
// reports success for a job that was actually cancelled or timed out —
// the engine's failure accounting then never sees the failure:
//
//	case <-ctx.Done():
//		return res, nil              // flagged: cancellation swallowed
//	case <-ctx.Done():
//		return res, ctx.Err()        // handled
//	case <-actx.Done():
//		return nil, context.Cause(actx) // handled (cause-aware)
//	case <-stop:
//		return nil, nil              // not a Done() channel; not flagged
//
// Bare `return` in a void goroutine (a feeder loop) is not flagged.
//
// Usage: errvet [dir ...]   (default "."). Each dir is checked as the
// packages `go list ./...` finds there, plus those of every module nested
// below it (a directory with its own go.mod; testdata, vendor and hidden
// directories are skipped). Packages are type-checked from source
// against the export data `go list -export` builds, so pattern 1 flags a
// call only when its results include an error: a Close that returns
// nothing, like httptest.Server's, is not a finding. Only the files of
// the current build configuration are checked; _test.go files never
// are. Exits 1 when any call is flagged and 2 when a package fails to
// list or type-check, so it slots into `make vet` and CI directly.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// flagged lists the method names whose dropped error loses data.
var flagged = map[string]bool{"Close": true, "Flush": true}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad, err := run(roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "errvet: %v\n", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "errvet: %d finding(s); handle the error (or write `_ = x.Close()` / return x.Err())\n", bad)
		os.Exit(1)
	}
}

// run checks every package under roots and returns the finding count.
func run(roots []string) (int, error) {
	bad := 0
	for _, root := range roots {
		dirs, err := moduleDirs(root)
		if err != nil {
			return bad, err
		}
		for _, dir := range dirs {
			n, err := checkModule(dir)
			bad += n
			if err != nil {
				return bad, err
			}
		}
	}
	return bad, nil
}

// moduleDirs returns root plus the root of every module nested below it:
// `go list ./...` stops at a nested go.mod, so each is listed from its
// own root.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// listedPackage is the part of `go list -json` output errvet reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// checkModule lists the packages under dir with their dependencies'
// export data, type-checks each listed package and reports its findings.
func checkModule(dir string) (int, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	exports := map[string]string{}
	var targets []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return 0, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	bad := 0
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return bad, err
			}
			files = append(files, f)
		}
		n, err := checkPackage(fset, p.ImportPath, files, imp)
		bad += n
		if err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// checkPackage type-checks one package's files and reports every
// finding in them. A package that does not type-check is an error.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (int, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return 0, fmt.Errorf("type-checking %s: %v", path, err)
	}
	bad := 0
	for _, f := range files {
		bad += checkFile(fset, f, info)
	}
	return bad, nil
}

// checkFile reports every bare Close/Flush expression statement whose
// results include an error, and every swallowed cancellation.
func checkFile(fset *token.FileSet, f *ast.File, info *types.Info) int {
	bad := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			call, ok := v.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagged[sel.Sel.Name] || len(call.Args) > 0 || !returnsError(info.Types[call].Type) {
				return true
			}
			pos := fset.Position(v.Pos())
			fmt.Printf("%s:%d: result of %s.%s() is dropped\n",
				pos.Filename, pos.Line, exprString(sel.X), sel.Sel.Name)
			bad++
		case *ast.CommClause:
			bad += checkDoneClause(fset, v)
		}
		return true
	})
	return bad
}

var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether a call of result type t returns an error
// among its results.
func returnsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return t != nil && types.Identical(t, errorType)
}

// checkDoneClause flags a `case <-x.Done():` whose body returns an
// explicit trailing nil without referencing x.Err() (any receiver's
// .Err(), conservatively) or context.Cause — the shape that swallows a
// cancellation and reports it as success.
func checkDoneClause(fset *token.FileSet, cc *ast.CommClause) int {
	recv := doneReceiver(cc.Comm)
	if recv == "" {
		return 0
	}
	consulted := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				// x.Err() / errors.Is(...) / context.Cause(actx) all
				// carry the cancellation out of the clause.
				if name == "Err" || name == "Cause" || name == "Is" || name == "As" {
					consulted = true
					return false
				}
			}
			return true
		})
	}
	if consulted {
		return 0
	}
	bad := 0
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // nested function bodies return elsewhere
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 {
				return true
			}
			last, ok := ret.Results[len(ret.Results)-1].(*ast.Ident)
			if !ok || last.Name != "nil" {
				return true
			}
			pos := fset.Position(ret.Pos())
			fmt.Printf("%s:%d: select on %s.Done() returns nil without consulting %s.Err() or context.Cause\n",
				pos.Filename, pos.Line, recv, recv)
			bad++
			return true
		})
	}
	return bad
}

// doneReceiver returns the rendered receiver of a `<-x.Done()` comm
// statement ("" when the clause receives from anything else).
func doneReceiver(comm ast.Stmt) string {
	var expr ast.Expr
	switch v := comm.(type) {
	case *ast.ExprStmt:
		expr = v.X
	case *ast.AssignStmt:
		if len(v.Rhs) == 1 {
			expr = v.Rhs[0]
		}
	}
	un, ok := expr.(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return ""
	}
	call, ok := un.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) > 0 {
		return ""
	}
	return exprString(sel.X)
}

// exprString renders simple receivers for the message; anything
// complex falls back to "(...)".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	}
	return "(...)"
}
