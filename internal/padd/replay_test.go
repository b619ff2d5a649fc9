package padd_test

import (
	"testing"
	"time"

	"repro/internal/padd"
)

// TestReplayMatchesOffline is the tentpole acceptance test: streaming
// the offline engine's closed-loop demand through the daemon's HTTP
// ingest path must reproduce the offline run — results, recordings and
// level sequences — bit for bit, for all six schemes, through BOTH
// ingest paths: per-session JSON POSTs and the persistent binary-acked
// stream.
func TestReplayMatchesOffline(t *testing.T) {
	for _, mode := range []string{padd.ModeJSON, padd.ModeStream} {
		t.Run(mode, func(t *testing.T) {
			report, err := padd.Replay(padd.ReplayConfig{
				// Long enough for the virus's Phase-I charge plus spikes to
				// trip the conventional scheme, so the comparison covers trip
				// accounting, not just calm cruising.
				Duration: 2 * time.Minute,
				Seed:     42,
				Mode:     mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Schemes) != 6 {
				t.Fatalf("replayed %d schemes, want 6", len(report.Schemes))
			}
			anyTripped := false
			for _, s := range report.Schemes {
				if s.Ticks != 1200 {
					t.Errorf("%s: replayed %d ticks, want 1200", s.Scheme, s.Ticks)
				}
				anyTripped = anyTripped || s.Tripped
				for _, m := range s.Mismatches {
					t.Errorf("%s: %s", s.Scheme, m)
				}
			}
			if !anyTripped {
				t.Error("no scheme tripped; the replay exercised nothing interesting")
			}
		})
	}
}
