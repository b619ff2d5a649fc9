package attacksearch

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Regenerate golden files after an intentional format or strategy change:
//
//	go test ./internal/attacksearch -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// quickEnv is a deliberately small search environment: big enough that
// coordination and phase structure matter, small enough that a full
// search fits in a unit test.
func quickEnv() Env {
	return Env{
		Racks:          3,
		ServersPerRack: 4,
		Duration:       30 * time.Second,
		PatienceS:      12,
		PrepS:          1,
		NodesPerGroup:  3,
	}
}

// render produces the search's two deterministic artifacts.
func render(t *testing.T, rep *Report) (csv, jsonl []byte) {
	t.Helper()
	var c, j bytes.Buffer
	if err := WriteFrontierCSV(&c, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvalsJSONL(&j, rep); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), j.Bytes()
}

// TestSearchRejectsRepeatedScheme: a scheme listed twice would be
// searched twice, with every frontier row doubled, so Search refuses
// the list and names the scheme.
func TestSearchRejectsRepeatedScheme(t *testing.T) {
	for _, list := range [][]string{{"PAD", "PAD"}, {"Conv", "PAD", "Conv"}} {
		_, err := Search(Config{Schemes: list, Budget: 2, Env: quickEnv()})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", list[0])) {
			t.Errorf("Search(%q) error = %v, want one naming %s", list, err, list[0])
		}
	}
}

// TestSearchRejectsEmptyShape: a cluster without racks or servers is
// refused with an error naming the field, before the probe background is
// sized from it.
func TestSearchRejectsEmptyShape(t *testing.T) {
	for _, c := range []struct {
		env   Env
		field string
	}{
		{Env{Racks: -1}, "Env.Racks -1"},
		{Env{ServersPerRack: -3}, "Env.ServersPerRack -3"},
	} {
		_, err := Search(Config{Env: c.env})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Search(Env %+v) error = %v, want one naming %s", c.env, err, c.field)
		}
	}
}

// TestSearchDeterminism is the harness's core property: the frontier CSV
// and the evaluation JSONL are byte-identical at any worker count. Run
// under -race this also shakes out unsynchronized sharing between
// concurrent evaluations.
func TestSearchDeterminism(t *testing.T) {
	run := func(workers int) (csv, jsonl []byte) {
		rep, err := Search(Config{
			Schemes: []string{"PS"},
			Budget:  18,
			Seed:    3,
			Workers: workers,
			Env:     quickEnv(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return render(t, rep)
	}
	csv1, jsonl1 := run(1)
	for _, workers := range []int{4, 8} {
		csvN, jsonlN := run(workers)
		if !bytes.Equal(csv1, csvN) {
			t.Errorf("frontier CSV differs between -workers 1 and -workers %d:\n1: %s\n%d: %s",
				workers, csv1, workers, csvN)
		}
		if !bytes.Equal(jsonl1, jsonlN) {
			t.Errorf("evaluation JSONL differs between -workers 1 and -workers %d", workers)
		}
	}
}

func TestSearchBudgetAndShape(t *testing.T) {
	rep, err := Search(Config{
		Schemes: []string{"Conv"},
		Budget:  15,
		Seed:    1,
		Env:     quickEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 1 || rep.Schemes[0].Scheme != "Conv" {
		t.Fatalf("unexpected schemes in report: %+v", rep.Schemes)
	}
	sr := rep.Schemes[0]
	if len(sr.Evals) == 0 || len(sr.Evals) > 15 {
		t.Fatalf("%d evaluations for budget 15", len(sr.Evals))
	}
	// Every evaluation's scenario must itself be a valid corpus document:
	// promoting any search result into testdata/corpus must never produce
	// a file the loader rejects.
	for _, ev := range sr.Evals {
		if err := ev.Scenario.Validate(); err != nil {
			t.Fatalf("search produced invalid scenario %s: %v", ev.Scenario.Name, err)
		}
		if ev.Outcome.Score < 0 || ev.Outcome.Score > 3 {
			t.Fatalf("score %v out of [0,3]", ev.Outcome.Score)
		}
	}
	// The frontier covers only evaluated coordination levels, ascending.
	for i := 1; i < len(sr.Frontier); i++ {
		if sr.Frontier[i].Scenario.Groups <= sr.Frontier[i-1].Scenario.Groups {
			t.Fatalf("frontier not ascending in groups: %d then %d",
				sr.Frontier[i-1].Scenario.Groups, sr.Frontier[i].Scenario.Groups)
		}
	}
	// Best is the max score over all evaluations.
	for _, ev := range sr.Evals {
		if ev.Outcome.Score > sr.Best.Outcome.Score {
			t.Fatalf("Best %.4f beaten by eval %d (%.4f)",
				sr.Best.Outcome.Score, ev.Index, ev.Outcome.Score)
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestSearchSmokeGolden pins a small fixed-budget search end to end: the
// frontier CSV and the human summary must not drift unless the search
// strategy or scoring intentionally changes. Exact float outcomes depend
// on FMA fusion, so the comparison runs on the architecture that
// generated the files (CI's amd64); other architectures still exercise
// the full search path via TestSearchDeterminism.
func TestSearchSmokeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes generated on amd64; GOARCH=%s evaluates floats differently", runtime.GOARCH)
	}
	rep, err := Search(Config{
		Schemes: []string{"Conv", "PAD"},
		Budget:  24,
		Seed:    5,
		Env:     quickEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := render(t, rep)
	checkGolden(t, "search_smoke_frontier.csv", csv)
	var sum bytes.Buffer
	if err := Summarize(&sum, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "search_smoke_summary", sum.Bytes())
}
