package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os/exec"
	"testing"
)

// count type-checks src as one package, importing the standard library
// from its export data, and returns its finding count.
func count(t *testing.T, src string) int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := checkPackage(fset, "p", []*ast.File{f}, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFlagsDroppedCloseAndFlush(t *testing.T) {
	src := `package p
func f(c interface{ Close() error }) {
	c.Close()          // flagged
	_ = c.Close()      // discarded visibly
	defer c.Close()    // cleanup idiom
	err := c.Close()   // handled
	_ = err
}`
	if got := count(t, src); got != 1 {
		t.Errorf("flagged %d calls, want 1", got)
	}
}

func TestFlagsSwallowedCancellation(t *testing.T) {
	src := `package p
import "context"
func f(ctx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return 0, nil // flagged: cancellation reported as success
	}
}`
	if got := count(t, src); got != 1 {
		t.Errorf("flagged %d clauses, want 1", got)
	}
}

func TestAcceptsConsultedCancellation(t *testing.T) {
	src := `package p
import "context"
func f(ctx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}
func g(actx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-actx.Done():
		return 0, context.Cause(actx)
	}
}
func h(ctx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		if err := context.Cause(ctx); err != nil {
			return 0, err
		}
		return 0, nil // reachable only when the cause was consulted
	}
}`
	if got := count(t, src); got != 0 {
		t.Errorf("flagged %d clauses, want 0", got)
	}
}

func TestAcceptsNonDoneChannelsAndVoidReturns(t *testing.T) {
	src := `package p
import "context"
func feeder(ctx context.Context, out chan int) {
	for i := 0; ; i++ {
		select {
		case out <- i:
		case <-ctx.Done():
			return // void feeder loop: nothing to report
		}
	}
}
func stopper(stop chan struct{}, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-stop:
		return 0, nil // plain stop channel carries no cause
	}
}`
	if got := count(t, src); got != 0 {
		t.Errorf("flagged %d clauses, want 0", got)
	}
}

func TestNestedFuncLitDoesNotLeakReturns(t *testing.T) {
	src := `package p
import "context"
func f(ctx context.Context) error {
	select {
	case <-ctx.Done():
		fn := func() (int, error) { return 0, nil } // inner return is fn's
		_ = fn
		return ctx.Err()
	}
}`
	if got := count(t, src); got != 0 {
		t.Errorf("flagged %d clauses, want 0", got)
	}
}

// TestFlagsOnlyErrorResults: whether a bare Close or Flush is a finding
// depends on its result types, not its name. A Close that returns
// nothing (httptest.Server's shape) is fine; an error-returning Close or
// Flush on a concrete type, an imported type or an interface is not.
func TestFlagsOnlyErrorResults(t *testing.T) {
	src := `package p
import "bufio"
type server struct{}
func (*server) Close() {}
type file struct{}
func (file) Close() error { return nil }
func (file) Flush() error { return nil }
type flusher interface{ Flush() error }
func f(s *server, fl file, w *bufio.Writer, i flusher) {
	s.Close()  // no result: not flagged
	fl.Close() // flagged
	fl.Flush() // flagged
	w.Flush()  // flagged: imported concrete type
	i.Flush()  // flagged: interface
}`
	if got := count(t, src); got != 4 {
		t.Errorf("flagged %d calls, want 4", got)
	}
}

// TestRunListsAndTypeChecksModules drives errvet as make vet does, over
// a directory holding a module: its packages are listed and type-checked
// against their dependencies' export data, so the no-result Close of an
// httptest.Server passes and an os.File's dropped Close is found.
func TestRunListsAndTypeChecksModules(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command")
	}
	n, err := run([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("flagged %d calls in testdata/fixture, want 1", n)
	}
}

// TestRunFailsOnTypeErrors: a package that does not type-check is an
// error, never a silent pass.
func TestRunFailsOnTypeErrors(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command")
	}
	if n, err := run([]string{"testdata/broken"}); err == nil {
		t.Fatalf("run on a package with a type error returned %d findings and no error", n)
	}
}
