package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attacksearch"
	"repro/internal/battery"
	"repro/internal/powersim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Search settings: the reference frontier digest in testdata/ pins this
// exact configuration.
const (
	searchBudget = 300
	searchSeed   = 1
)

// frontierDigestFile holds the SHA-256 of the six-scheme frontier CSV.
const frontierDigestFile = "perfbench/testdata/search_frontier.sha256"

// runSearch times attacksearch.Search over all six schemes at a fixed
// seed, budget and worker count. The workload seed only permutes the
// order the schemes are listed in, which the search result does not
// depend on; the frontier, reassembled in canonical order, must match
// the reference digest.
func runSearch(b *bench) error {
	order := permutedSchemes(b.seed)
	budget, env := searchBudget, attacksearch.Env{}
	if b.smoke {
		budget, env = 6, smokeEnv()
	}
	var want string
	err := b.repeatSetup(5, func() error {
		raw, err := os.ReadFile(filepath.Join(b.root, frontierDigestFile))
		if err != nil {
			return err
		}
		want = strings.TrimSpace(string(raw))
		// A tiny search on a small cluster checks the configuration and
		// pages in the code; the caches it fills are reset, so the timed
		// searches pay for their own as a user's run does.
		_, err = attacksearch.Search(attacksearch.Config{
			Schemes: order[:1], Budget: 4, Seed: searchSeed, Workers: workers, Env: smokeEnv(),
		})
		battery.ResetSizeCache()
		return err
	}, func() error { return nil })
	if err != nil {
		return err
	}

	var untraced, traced []time.Duration
	var evals, trips float64
	var last *attacksearch.Report
	var st searchTrace
	defer func() {
		if st.heap != nil {
			st.heap.stopOnce()
		}
	}()
	ref := refTime()
	err = b.measureLoop(func(i int) error {
		tracing := b.trace && i > 0
		battery.ResetSizeCache()
		cpu0, _ := selfRusage()
		t0 := time.Now()
		var rep *attacksearch.Report
		var err error
		if tracing {
			rep, err = tracedSearch(b, &st, i, order, budget, env)
		} else {
			rep, err = attacksearch.Search(attacksearch.Config{
				Schemes: order, Budget: budget, Seed: searchSeed, Workers: workers, Env: env,
			})
		}
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		cpu1, _ := selfRusage()
		n := 0
		for _, sr := range rep.Schemes {
			n += len(sr.Evals)
			for _, ev := range sr.Evals {
				if ev.Outcome.Tripped {
					trips++
				}
			}
		}
		evals += float64(n)
		b.results = append(b.results, wall)
		before := ref
		ref = refTime()
		b.op(float64(n), wall, cpu1-cpu0, hostSpeed(before, ref))
		b.attempted += int64(n)
		if tracing {
			traced = append(traced, wall)
		} else {
			untraced = append(untraced, wall)
		}
		if !b.smoke {
			if err := checkFrontier(rep, want); err != nil {
				b.fail(err)
			}
		}
		last = rep
		return nil
	})
	if err != nil {
		return err
	}
	_, b.peakRSSMB = selfRusage()
	b.name("search_s", median(seconds(b.results)), "s", fmt.Sprintf("median of %d", len(b.results)))
	b.name("search_evals_per_s", median(b.opRate), "1/s", "median over searches, host-speed normalized")
	if !b.trace {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("traced run too short: no traced search")
	}
	st.heap.finish(b)
	st.gc.reportSince(gcSnap{}, b)
	b.name("runner.busy_share", median(st.busy), "ratio", "CPU / (wall × workers)")
	b.layer("cpu.busy_share", median(st.busy), "ratio")
	overhead := median(seconds(traced))/median(seconds(untraced)) - 1
	b.name("trace.overhead_share", overhead, "ratio", "traced vs untraced search")
	b.name("attacksearch.evals", evals, "count", "")
	b.name("attacksearch.trip_ratio", trips/evals, "ratio", "")
	b.layer("trace.overhead_share", overhead, "ratio")
	b.layer("fail_ratio", float64(b.failed)/float64(b.attempted), "ratio")
	if err := b.replayEvals(last, 20); err != nil {
		return err
	}
	b.probeBattery(10)
	return b.probeSim(8, 10, 4000)
}

// smokeEnv is padsearch -quick's environment.
func smokeEnv() attacksearch.Env {
	return attacksearch.Env{
		Racks: 3, ServersPerRack: 4, Duration: 30 * time.Second,
		PatienceS: 12, PrepS: 1, NodesPerGroup: 3,
	}
}

// permutedSchemes is the six scheme names in a seed-determined order.
func permutedSchemes(seed uint64) []string {
	out := append([]string(nil), schemes.SchemeNames...)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// searchTrace accumulates what the traced searches of a run measure.
type searchTrace struct {
	busy []float64
	gc   gcSnap // GC pause and cycles summed over the traced searches
	heap *heapSampler
}

// tracedSearch runs the same search one scheme at a time, each call in
// its own span, CPU and GC accounted around the whole.
func tracedSearch(b *bench, st *searchTrace, traceID int, order []string, budget int, env attacksearch.Env) (*attacksearch.Report, error) {
	if st.heap == nil {
		st.heap = startHeapSampler(20 * time.Millisecond)
	}
	cpu0, _ := selfRusage()
	gc0 := gcStats()
	t0 := time.Now()
	root := b.spans.add("search", 0, traceID, t0, t0)
	var rep *attacksearch.Report
	for _, name := range order {
		s0 := time.Now()
		r, err := attacksearch.Search(attacksearch.Config{
			Schemes: []string{name}, Budget: budget, Seed: searchSeed, Workers: workers, Env: env,
		})
		if err != nil {
			return nil, err
		}
		b.spans.add("attacksearch.search."+name, root, traceID, s0, time.Now())
		if rep == nil {
			rep = r
		} else {
			rep.Schemes = append(rep.Schemes, r.Schemes...)
		}
	}
	end := time.Now()
	b.spans.end(root, end)
	cpu1, _ := selfRusage()
	gc1 := gcStats()
	st.busy = append(st.busy, (cpu1-cpu0).Seconds()/(end.Sub(t0).Seconds()*workers))
	st.gc.pause += gc1.pause - gc0.pause
	st.gc.numGC += gc1.numGC - gc0.numGC
	return rep, nil
}

// checkFrontier compares a report's frontier with the reference digest.
func checkFrontier(rep *attacksearch.Report, want string) error {
	got, err := frontierDigest(rep)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("frontier digest %s, want %s", got, want)
	}
	return nil
}

// frontierDigest hashes the frontier CSV with the schemes in canonical
// order.
func frontierDigest(rep *attacksearch.Report) (string, error) {
	canon := *rep
	canon.Schemes = nil
	for _, name := range schemes.SchemeNames {
		for _, sr := range rep.Schemes {
			if sr.Scheme == name {
				canon.Schemes = append(canon.Schemes, sr)
			}
		}
	}
	if len(canon.Schemes) != len(rep.Schemes) {
		return "", fmt.Errorf("search report has unknown or repeated schemes")
	}
	var buf bytes.Buffer
	if err := attacksearch.WriteFrontierCSV(&buf, &canon); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// replayEvals replays perScheme seed-chosen evaluations of the last
// search through Evaluate, timing each, and steps the same scenarios by
// hand (SimConfig → NewStepper → Step, the engine's default per-tick
// path) to price what Evaluate's own path saves. Each hand-stepped
// Outcome must equal Evaluate's.
func (b *bench) replayEvals(rep *attacksearch.Report, perScheme int) error {
	rng := rand.New(rand.NewSource(int64(b.seed)))
	var evalMS []float64
	var evalTime, handTime time.Duration
	ticks := 0
	for _, sr := range rep.Schemes {
		if len(sr.Evals) == 0 {
			continue
		}
		bg := sr.Evals[0].Scenario.Background()
		for k := 0; k < perScheme; k++ {
			ev := sr.Evals[rng.Intn(len(sr.Evals))]
			t0 := time.Now()
			got, err := attacksearch.Evaluate(ev.Scenario, sr.Scheme, bg)
			if err != nil {
				return err
			}
			t1 := time.Now()
			hand, n, err := handStep(ev.Scenario, sr.Scheme, bg)
			if err != nil {
				return err
			}
			t2 := time.Now()
			ticks += n
			evalMS = append(evalMS, float64(t1.Sub(t0))/float64(time.Millisecond))
			evalTime += t1.Sub(t0)
			handTime += t2.Sub(t1)
			b.spans.add("attacksearch.evaluate", 0, 0, t0, t1)
			b.spans.add("sim.hand_step", 0, 0, t1, t2)
			if err := sameOutcome(got, hand, ev.Outcome); err != nil {
				b.fail(fmt.Errorf("%s: %w", ev.Scenario.Name, err))
			}
		}
	}
	b.nameLatency("attacksearch.eval_p50_ms", "attacksearch.eval_p99_ms", evalMS)
	saving := 1 - evalTime.Seconds()/handTime.Seconds()
	b.name("attacksearch.skip_saving_share", saving, "ratio", "1 − Evaluate / hand-stepped time")
	b.name("sim.ticks", float64(ticks), "count", "hand-stepped replays")
	return nil
}

// sameOutcome checks the hand-stepped outcome against Evaluate's and
// the search's own record of the same evaluation.
func sameOutcome(eval, hand, searched attacksearch.Outcome) error {
	if hand != eval {
		return fmt.Errorf("hand-stepped outcome %+v != Evaluate %+v", hand, eval)
	}
	if eval != searched {
		return fmt.Errorf("replayed outcome %+v != searched %+v", eval, searched)
	}
	return nil
}

// handStep runs a scenario to its first trip on the per-tick path and
// scores it as Evaluate does, returning the ticks stepped.
func handStep(s attacksearch.Scenario, scheme string, bg []*stats.Series) (attacksearch.Outcome, int, error) {
	cfg, sch, err := s.SimConfig(scheme, bg)
	if err != nil {
		return attacksearch.Outcome{}, 0, err
	}
	cfg.StopOnTrip = true
	st, err := sim.NewStepper(cfg, sch)
	if err != nil {
		return attacksearch.Outcome{}, 0, err
	}
	defer st.Close()
	nameplate := powersim.DL585G5.Peak * units.Watts(s.ServersPerRack)
	minMargin := nameplate
	for {
		ok, err := st.Step()
		if err != nil {
			return attacksearch.Outcome{}, 0, err
		}
		if !ok {
			break
		}
		if ts := st.Stats(); !ts.Tripped && ts.BreakerMargin < minMargin {
			minMargin = ts.BreakerMargin
		}
	}
	res := st.Result()
	o := attacksearch.Outcome{
		Scheme:           scheme,
		Tripped:          res.Tripped,
		TimeToTripS:      res.SurvivalTime.Seconds(),
		EffectiveAttacks: res.EffectiveAttacks,
		DrainJ:           float64(res.EnergyFromBatteries),
		StealthMarginW:   float64(minMargin),
		Throughput:       res.Throughput,
	}
	reserve := float64(battery.SizeForAutonomy(nameplate, battery.RackCabinetAutonomy, 0, 0)) * float64(s.Racks)
	o.Score = score(o, s.DurationS, float64(nameplate), reserve)
	return o, st.Ticks(), nil
}

// score is the search's attack-quality objective: tripped attacks in
// (2, 3] by earliness, untripped ones in [0, 1) by margin pressure,
// drain and effective-attack count.
func score(o attacksearch.Outcome, horizonS, nameplateW, reserveJ float64) float64 {
	if o.Tripped {
		frac := o.TimeToTripS / horizonS
		if frac > 1 {
			frac = 1
		}
		return 2 + (1 - frac)
	}
	pressure := 1 - o.StealthMarginW/nameplateW
	if pressure < 0 {
		pressure = 0
	} else if pressure > 1 {
		pressure = 1
	}
	drain := o.DrainJ / reserveJ
	if drain > 1 {
		drain = 1
	}
	eff := float64(o.EffectiveAttacks) / 10
	if eff > 1 {
		eff = 1
	}
	return 0.5*pressure + 0.35*drain + 0.15*eff
}
