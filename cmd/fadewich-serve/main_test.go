package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"reflect"
	"testing"
)

// TestHTTPServersBoundHeaderReads checks that both HTTP servers the
// daemon runs bound header reads: the fleet server of the serve and
// worker modes (serveFleet) and the coordinator's (runCoordinator)
// each go through serveHTTP, the one caller of newHTTPServer, which
// holds the only http.Server literal in main.go and sets
// ReadHeaderTimeout.
func TestHTTPServersBoundHeaderReads(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(h)
	if readHeaderTimeout <= 0 || s.ReadHeaderTimeout != readHeaderTimeout || s.Handler != h {
		t.Fatalf("newHTTPServer: ReadHeaderTimeout %v (want %v), handler %v", s.ReadHeaderTimeout, readHeaderTimeout, s.Handler)
	}
	if s.ReadTimeout != 0 {
		t.Fatalf("newHTTPServer sets ReadTimeout %v: training POSTs need unbounded body reads", s.ReadTimeout)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}    // "caller→callee" → calls of serveHTTP or newHTTPServer
	literals := map[string]int{} // function → http.Server literals in it
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "serveHTTP" || id.Name == "newHTTPServer") {
					calls[fn.Name.Name+"→"+id.Name]++
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Server" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" {
						literals[fn.Name.Name]++
					}
				}
			}
			return true
		})
	}
	want := map[string]int{"serveFleet→serveHTTP": 1, "runCoordinator→serveHTTP": 1, "serveHTTP→newHTTPServer": 1}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("serveHTTP and newHTTPServer calls: %v, want %v", calls, want)
	}
	if want := map[string]int{"newHTTPServer": 1}; !reflect.DeepEqual(literals, want) {
		t.Errorf("http.Server literals by function: %v, want %v", literals, want)
	}
}
