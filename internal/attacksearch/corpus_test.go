package attacksearch

import (
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/padd"
	"repro/internal/schemes"
)

// The corpus under testdata/corpus holds the worst-case attack each
// scheme's search discovered, with the replay outcome of every scheme
// pinned. Regenerate the pinned outcomes after an intentional engine or
// scheme change (on amd64, matching CI):
//
//	go test ./internal/attacksearch -run TestCorpus -update-corpus
//
// To re-discover the scenarios themselves (new search, new worst cases):
//
//	go run ./cmd/padsearch -budget 400 -seed 1 \
//	    -corpus internal/attacksearch/testdata/corpus -csv ''
var updateCorpus = flag.Bool("update-corpus", false, "re-evaluate and rewrite the corpus expectations")

func loadCorpusT(t *testing.T) []Scenario {
	t.Helper()
	scens, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) == 0 {
		t.Fatal("empty corpus: testdata/corpus has no scenarios")
	}
	return scens
}

// TestCorpusCoversEveryScheme pins the corpus contract: at least one
// checked-in worst case per defense scheme.
func TestCorpusCoversEveryScheme(t *testing.T) {
	covered := map[string]bool{}
	for _, s := range loadCorpusT(t) {
		covered[s.Scheme] = true
	}
	for _, name := range schemes.SchemeNames {
		if !covered[name] {
			t.Errorf("no corpus scenario discovered against %s", name)
		}
	}
}

// TestCorpusReplay is the regression tier: every corpus scenario runs
// against all six schemes and must reproduce its pinned detection
// verdict, time-to-trip and effective-attack count. The pinned values
// are exact on amd64 (the architecture that generated them and that CI
// runs); on other architectures FMA fusion shifts float results, so the
// replay only checks that evaluation succeeds.
func TestCorpusReplay(t *testing.T) {
	if *updateCorpus {
		updateCorpusFiles(t)
		return
	}
	exact := runtime.GOARCH == "amd64"
	for _, scen := range loadCorpusT(t) {
		scen := scen
		t.Run(scen.Name, func(t *testing.T) {
			if len(scen.Expect) != len(schemes.SchemeNames) {
				t.Fatalf("scenario pins %d schemes, want all %d",
					len(scen.Expect), len(schemes.SchemeNames))
			}
			bg := scen.Background()
			for _, name := range schemes.SchemeNames {
				o, err := Evaluate(scen, name, bg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !exact {
					continue
				}
				want := scen.Expect[name]
				if o.Tripped != want.Tripped {
					t.Errorf("%s: tripped=%v, corpus pins %v", name, o.Tripped, want.Tripped)
				}
				if o.TimeToTripS != want.TimeToTripS {
					t.Errorf("%s: time to trip %v s, corpus pins %v s", name, o.TimeToTripS, want.TimeToTripS)
				}
				if o.EffectiveAttacks != want.EffectiveAttacks {
					t.Errorf("%s: %d effective attacks, corpus pins %d", name, o.EffectiveAttacks, want.EffectiveAttacks)
				}
			}
		})
	}
}

// TestCorpusOnlineOffline replays each corpus scenario's own scheme
// through the padd daemon: the online HTTP-ingest path must reproduce
// the offline engine bit for bit under the discovered worst-case attack,
// coordinated groups and all. This holds on every architecture — both
// sides run on the same hardware.
func TestCorpusOnlineOffline(t *testing.T) {
	if *updateCorpus {
		t.Skip("corpus update runs in TestCorpusReplay")
	}
	if testing.Short() {
		t.Skip("daemon replay of the full corpus is not a -short test")
	}
	for _, scen := range loadCorpusT(t) {
		scen := scen
		t.Run(scen.Name, func(t *testing.T) {
			rep, err := padd.Replay(ReplayConfig(scen))
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range rep.Schemes {
				if !sr.OK() {
					t.Errorf("%s: online diverged from offline: %v", sr.Scheme, sr.Mismatches)
				}
			}
		})
	}
}

// updateCorpusFiles re-evaluates every scenario and rewrites its pinned
// expectations in place.
func updateCorpusFiles(t *testing.T) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		s, err := LoadScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := FillExpectations(&s); err != nil {
			t.Fatal(err)
		}
		if err := WriteScenario(p, s); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("updated %s\n", p)
	}
}
