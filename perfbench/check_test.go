package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attacksearch"
	"repro/internal/padd"
)

// Each workload's output check must fail on a deliberately corrupted
// output.

func TestReproCheckFlippedByte(t *testing.T) {
	golden := map[string][]byte{
		"fig5_soc_variation.csv": []byte("t,online,offline\n0,1.5,2.5\n"),
		"fig5_chart.txt":         []byte("chart\n"),
	}
	dir := t.TempDir()
	for name, data := range golden {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkRepro(dir, golden, false); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}

	path := filepath.Join(dir, "fig5_soc_variation.csv")
	flipped := append([]byte(nil), golden["fig5_soc_variation.csv"]...)
	flipped[len(flipped)-3] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkRepro(dir, golden, false); err == nil {
		t.Error("one flipped CSV byte passed the check")
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := checkRepro(dir, golden, true); err == nil {
		t.Error("a missing CSV passed the check")
	}
}

func TestSearchCheckWrongDigest(t *testing.T) {
	rep, err := attacksearch.Search(attacksearch.Config{
		Schemes: []string{"PAD", "Conv"}, Budget: 4, Seed: searchSeed, Workers: workers, Env: smokeEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := frontierDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFrontier(rep, want); err != nil {
		t.Fatalf("own digest rejected: %v", err)
	}
	if err := checkFrontier(rep, "0"+want[1:]); err == nil {
		t.Error("a wrong frontier digest passed the check")
	}
	// A changed frontier entry changes the digest.
	rep.Schemes[0].Frontier[0].Outcome.Score += 1e-9
	if err := checkFrontier(rep, want); err == nil {
		t.Error("a corrupted frontier passed the check")
	}
	// The scheme order of the report does not matter.
	rep.Schemes[0].Frontier[0].Outcome.Score -= 1e-9
	rep.Schemes[0], rep.Schemes[1] = rep.Schemes[1], rep.Schemes[0]
	if err := checkFrontier(rep, want); err != nil {
		t.Errorf("reordered schemes rejected: %v", err)
	}
}

func TestFleetCheckDroppedAckedSample(t *testing.T) {
	ok := padd.SessionStatus{ID: "f-00001", Ticks: 12, Accepted: 12}
	if err := checkSession(ok, 12); err != nil {
		t.Fatalf("consistent session rejected: %v", err)
	}
	// The daemon accepted one sample fewer than the collectors saw
	// acknowledged: an acked sample was dropped.
	dropped := ok
	dropped.Accepted, dropped.Ticks = 11, 11
	if err := checkSession(dropped, 12); err == nil {
		t.Error("a dropped acked sample passed the check")
	}
	undecided := ok
	undecided.Ticks = 11
	if err := checkSession(undecided, 12); err == nil {
		t.Error("an accepted but never decided sample passed the check")
	}
	discarded := ok
	discarded.Discarded, discarded.Ticks = 1, 11
	if err := checkSession(discarded, 12); err == nil {
		t.Error("a discarded sample passed the check")
	}
}

func TestHandSteppedOutcomeMatchesEvaluate(t *testing.T) {
	rep, err := attacksearch.Search(attacksearch.Config{
		Schemes: []string{"PAD"}, Budget: 4, Seed: searchSeed, Workers: workers, Env: smokeEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range rep.Schemes[0].Evals {
		got, err := attacksearch.Evaluate(ev.Scenario, "PAD", nil)
		if err != nil {
			t.Fatal(err)
		}
		hand, _, err := handStep(ev.Scenario, "PAD", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutcome(got, hand, ev.Outcome); err != nil {
			t.Errorf("%s: %v", ev.Scenario.Name, err)
		}
	}
	o := rep.Schemes[0].Evals[0].Outcome
	off := o
	off.DrainJ++
	if err := sameOutcome(o, off, o); err == nil {
		t.Error("a differing hand-stepped outcome passed the check")
	}
}
