package attacksearch

import (
	"fmt"
	"slices"

	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/stats"
)

// Config shapes one attack search.
type Config struct {
	// Schemes lists the defenses to search against, each at most once.
	// Empty selects all six (schemes.SchemeNames order).
	Schemes []string
	// Budget is the evaluation budget per scheme. 0 selects 400 — enough
	// for the seeding pass to cover the space and the descent to
	// converge on this space's grid.
	Budget int
	// Seed pins the whole search. Two searches with equal (Seed, Budget,
	// Env, Schemes) produce byte-identical reports at any Workers count.
	Seed uint64
	// Workers bounds evaluation concurrency (runner.Pool semantics:
	// 0 selects GOMAXPROCS, 1 is serial).
	Workers int
	// Env fixes the cluster and attacker environment.
	Env Env
	// Progress, when non-nil, receives one line per search phase —
	// coarse narration, not per-evaluation spam.
	Progress func(format string, args ...any)
}

// Evaluation is one scored candidate, in evaluation order.
type Evaluation struct {
	// Scheme names the defense the candidate ran against.
	Scheme string `json:"scheme"`
	// Phase is the search phase that generated the candidate: "seed"
	// (Latin-hypercube) or "descend" (coordinate refinement).
	Phase string `json:"phase"`
	// Index is the candidate's position in the scheme's evaluation order.
	Index int `json:"index"`
	// Scenario is the full candidate attack.
	Scenario Scenario `json:"scenario"`
	// Outcome is its scored result.
	Outcome Outcome `json:"outcome"`
}

// Search explores the attack space against each configured scheme and
// returns the per-scheme robustness report.
//
// Strategy: a Latin-hypercube seeding pass spends three fifths of the
// budget covering the space (stratified per dimension, so no region of
// any single parameter goes unsampled), then coordinate descent spends
// the rest refining the best seed — each round proposes ± one stride
// along every dimension as one batch, moves to the best improvement, and
// halves the stride when a round stalls. Candidate generation is serial;
// only evaluations fan out (runner.Map, results in job order; score ties
// break toward the earlier candidate) — which is the whole determinism
// argument, everything else is pure.
func Search(cfg Config) (*Report, error) {
	if cfg.Budget == 0 {
		cfg.Budget = 400
	}
	if cfg.Budget < 2 {
		return nil, fmt.Errorf("attacksearch: budget %d too small (need ≥ 2)", cfg.Budget)
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = schemes.SchemeNames
	}
	for i, name := range cfg.Schemes {
		if _, err := schemes.ByName(name, schemes.Options{}); err != nil {
			return nil, err
		}
		if slices.Contains(cfg.Schemes[:i], name) {
			return nil, fmt.Errorf("attacksearch: scheme %q listed twice", name)
		}
	}
	env := cfg.Env.withDefaults()
	if env.Racks < 1 {
		return nil, fmt.Errorf("attacksearch: Env.Racks %d must be positive", env.Racks)
	}
	if env.ServersPerRack < 1 {
		return nil, fmt.Errorf("attacksearch: Env.ServersPerRack %d must be positive", env.ServersPerRack)
	}
	rep := &Report{
		Seed:   cfg.Seed,
		Budget: cfg.Budget,
		Env:    env,
	}
	// One background trace and one scenario seed serve every candidate:
	// sim only ever reads Background series, so the slice is safe to
	// share across concurrent evaluations.
	seed := runner.DeriveSeed(cfg.Seed, "attacksearch/env")
	probe := env.scenario(dims(env), vec{0.9, 1, 4, 0, 100, 1, 0}, seed, cfg.Schemes[0], "probe")
	bg := probe.Background()

	for _, scheme := range cfg.Schemes {
		sr, err := searchScheme(cfg, env, scheme, seed, bg)
		if err != nil {
			return nil, err
		}
		rep.Schemes = append(rep.Schemes, *sr)
	}
	return rep, nil
}

// searchScheme runs the seeding and descent passes against one scheme.
func searchScheme(cfg Config, env Env, scheme string, seed uint64, bg []*stats.Series) (*SchemeResult, error) {
	d := dims(env)
	pool := runner.Pool{Workers: cfg.Workers}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}

	sr := &SchemeResult{Scheme: scheme}
	seen := make(map[string]int) // vec key → evaluation index
	var best *Evaluation

	// evaluate scores a batch of fresh candidates in order and folds them
	// into the result, returning the batch's best evaluation index.
	evaluate := func(phase string, cands []vec) (int, error) {
		jobs := make([]runner.Job[Outcome], 0, len(cands))
		scens := make([]Scenario, 0, len(cands))
		idx := make([]int, 0, len(cands))
		for _, v := range cands {
			k := v.key()
			if _, dup := seen[k]; dup {
				continue
			}
			i := len(sr.Evals)
			seen[k] = i
			name := fmt.Sprintf("%s/%s/%04d", scheme, phase, i)
			scen := env.scenario(d, v, seed, scheme, name)
			scens = append(scens, scen)
			idx = append(idx, i)
			sr.Evals = append(sr.Evals, Evaluation{Scheme: scheme, Phase: phase, Index: i, Scenario: scen})
			jobs = append(jobs, runner.Job[Outcome]{
				Key: name,
				Run: func() (Outcome, error) { return Evaluate(scen, scheme, bg) },
			})
		}
		bestIdx := -1
		for j, r := range runner.Map(pool, jobs) {
			if r.Err != nil {
				return -1, fmt.Errorf("%s: %w", r.Key, r.Err)
			}
			ev := &sr.Evals[idx[j]]
			ev.Outcome = r.Value
			if best == nil || r.Value.Score > best.Outcome.Score {
				best = ev
			}
			if bestIdx < 0 || r.Value.Score > sr.Evals[bestIdx].Outcome.Score {
				bestIdx = idx[j]
			}
		}
		return bestIdx, nil
	}

	// Seeding: Latin hypercube. Per dimension, the sample count is split
	// into equal strata and a random permutation assigns one stratum to
	// each sample — uniform marginal coverage with far fewer points than
	// a grid. All randomness comes from one derived stream, drawn in a
	// fixed order.
	seedN := cfg.Budget * 3 / 5
	if seedN < 1 {
		seedN = 1
	}
	rng := stats.NewRNG(runner.DeriveSeed(cfg.Seed, "attacksearch/lhs/"+scheme))
	cands := make([]vec, seedN)
	for dimIdx := 0; dimIdx < numDims; dimIdx++ {
		perm := rng.Perm(seedN)
		for i := 0; i < seedN; i++ {
			dm := d[dimIdx]
			u := (float64(perm[i]) + rng.Float64()) / float64(seedN)
			cands[i][dimIdx] = dm.quant(dm.lo + u*(dm.hi-dm.lo))
		}
	}
	progress("%s: seeding %d Latin-hypercube candidates", scheme, seedN)
	if _, err := evaluate("seed", cands); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("attacksearch: %s: no seed candidate evaluated", scheme)
	}

	// Descent: from the best seed, propose ±stride along each dimension
	// per round; move to the strongest improvement, halve every stride
	// when a round yields none, stop when strides bottom out or the
	// budget runs dry.
	cur := vecOf(best.Scenario)
	stride := [numDims]float64{}
	for i := range stride {
		stride[i] = 16 * d[i].step
		if span := d[i].hi - d[i].lo; stride[i] > span/2 {
			stride[i] = d[i].quant(d[i].lo+span/2) - d[i].lo
			if stride[i] < d[i].step {
				stride[i] = d[i].step
			}
		}
	}
	progress("%s: descending from score %.4f (%s)", scheme, best.Outcome.Score, cur)
	for len(sr.Evals) < cfg.Budget {
		var batch []vec
		for i := 0; i < numDims; i++ {
			for _, dir := range [2]float64{-1, 1} {
				v := cur
				v[i] = d[i].quant(cur[i] + dir*stride[i])
				if v != cur {
					batch = append(batch, v)
				}
			}
		}
		if room := cfg.Budget - len(sr.Evals); len(batch) > room {
			batch = batch[:room]
		}
		before := best.Outcome.Score
		bestIdx, err := evaluate("descend", batch)
		if err != nil {
			return nil, err
		}
		improved := bestIdx >= 0 && sr.Evals[bestIdx].Outcome.Score > before
		if improved {
			cur = vecOf(sr.Evals[bestIdx].Scenario)
			continue
		}
		done := true
		for i := range stride {
			if stride[i] > d[i].step {
				stride[i] /= 2
				if stride[i] < d[i].step {
					stride[i] = d[i].step
				}
				done = false
			}
		}
		if done {
			break
		}
	}

	sr.finalize(env)
	progress("%s: best score %.4f after %d evaluations (tripped=%v, t=%.1fs)",
		scheme, sr.Best.Outcome.Score, len(sr.Evals),
		sr.Best.Outcome.Tripped, sr.Best.Outcome.TimeToTripS)
	return sr, nil
}

// vecOf recovers the grid point a scenario was generated from. Width may
// have been feasibility-clamped during generation, so the recovered
// point is re-quantized; descent then explores from the clamped value,
// which is the value that actually ran.
func vecOf(s Scenario) vec {
	return vec{
		dimPeak:        s.PeakFraction,
		dimWidthS:      s.SpikeWidthMS / 1000,
		dimSPM:         s.SpikesPerMinute,
		dimPhaseJitter: s.PhaseJitter,
		dimRampMS:      s.RampMS,
		dimGroups:      float64(s.Groups),
		dimOffsetMS:    s.PhaseOffsetMS,
	}
}
