package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark may call only public API the ROADMAP keeps, so that the
// planned removals (the quiescent skip path, Config.Attack and rack
// Workers, Plan in favour of PlanInto, binary /v1/ingest and the raw TCP
// stream listener, the session string-event log) land without editing
// it. guardViolations lists every use of those in one file.
func guardViolations(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, what string) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
	}
	// attacksearch.Config.Workers is the search's worker count, which
	// stays; every other Workers (sim.Config's rack parallelism) goes.
	searchWorkers := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if sel, ok := x.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Config" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "attacksearch" {
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Workers" {
								searchWorkers[id] = true
							}
						}
					}
				}
			}
		case *ast.Ident:
			switch x.Name {
			case "SkipQuiescent", "SkipStats", "EvaluateNoSkip", "NoSkip", "QuiescentPlanner", "ModeBinary":
				report(x, x.Name)
			case "Workers":
				if !searchWorkers[x] {
					report(x, "Workers outside attacksearch.Config")
				}
			}
		case *ast.SelectorExpr:
			switch x.Sel.Name {
			case "Plan", "Events", "Attack":
				report(x, "."+x.Sel.Name)
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok && id.Name == "Attack" {
				report(x, "Attack field")
			}
		case *ast.BasicLit:
			if x.Kind == token.STRING {
				for _, s := range []string{"/v1/ingest", "stream-addr"} {
					if strings.Contains(x.Value, s) {
						report(x, s)
					}
				}
			}
		}
		return true
	})
	return out
}

func TestAPIGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range guardViolations(fset, f) {
			t.Errorf("benchmark uses API slated for removal: %s", v)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no benchmark sources found")
	}
}

func TestAPIGuardCatchesEachRemovedAPI(t *testing.T) {
	const src = `package p
func f() {
	cfg.SkipQuiescent = true
	_ = st.SkipStats()
	attacksearch.EvaluateNoSkip(s, "PAD", nil)
	_ = attacksearch.Config{NoSkip: true, Workers: 2}
	_ = sim.Config{Attack: a, Workers: 4}
	cfg.Workers = 2
	_ = cfg.Attack
	scheme.Plan(obs)
	var _ sim.QuiescentPlanner
	post("/v1/ingest")
	run("-stream-addr", ":9")
	_ = sess.Events(0)
	_ = padd.ModeBinary
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := guardViolations(fset, f)
	// One each, except Attack in sim.Config (key and selector both
	// count once) and the allowed attacksearch.Config Workers.
	want := []string{
		"SkipQuiescent", "SkipStats", "EvaluateNoSkip", "NoSkip",
		"Attack field", "Workers outside", "Workers outside", ".Attack", ".Plan",
		"QuiescentPlanner", "/v1/ingest", "stream-addr", ".Events", "ModeBinary",
	}
	for _, w := range want {
		found := false
		for i, g := range got {
			if strings.Contains(g, w) {
				got = append(got[:i], got[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted use %q not reported", w)
		}
	}
	if len(got) > 0 {
		t.Errorf("unexpected reports: %v", got)
	}
}
