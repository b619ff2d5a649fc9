// Command padsearch characterizes the defense schemes by searching the
// attack space against them: it explores virus spike height, width,
// frequency, phase, ramp and multi-rack coordination with a seeded,
// budgeted strategy (Latin-hypercube seeding, then coordinate descent),
// scores every candidate on time-to-trip, battery drain and stealth
// margin, and writes a per-scheme robustness frontier.
//
// A search is a pure function of its flags: the frontier CSV and the
// evaluation JSONL are byte-identical at any -workers count. The worst
// case found per scheme can be exported with -corpus as a versioned
// scenario file, the format the regression corpus under
// internal/attacksearch/testdata/corpus is built from.
//
// Usage:
//
//	padsearch -scheme PAD -budget 2000 -workers 8 -csv frontier.csv
//	padsearch -scheme all -budget 400 -corpus corpusdir
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/attacksearch"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/schemes"
	"repro/internal/version"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		schemeList  = flag.String("scheme", "all", "schemes to search against: all, or a comma list (case-insensitive) of Conv, PS, PSPC, uDEB, vDEB, PAD")
		budget      = flag.Int("budget", 400, "evaluation budget per scheme")
		seed        = flag.Uint64("seed", 1, "search seed; equal flags reproduce equal bytes")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "evaluation goroutines (results are identical at any count)")
		racks       = flag.Int("racks", 0, "cluster racks (0 = search default, 8)")
		spr         = flag.Int("servers-per-rack", 0, "servers per rack (0 = search default, 10)")
		duration    = flag.Duration("duration", 0, "per-evaluation horizon (0 = search default, 5m)")
		tick        = flag.Duration("tick", 0, "simulation step (0 = search default, 100ms)")
		bgMean      = flag.Float64("background", 0, "mean background utilization (0 = search default, 0.30)")
		quick       = flag.Bool("quick", false, "tiny environment and horizon for smoke runs (CI uses this)")
		csvPath     = flag.String("csv", "frontier.csv", "write the robustness frontier CSV here ('' disables)")
		jsonlPath   = flag.String("jsonl", "", "write every evaluation as JSONL here")
		corpusDir   = flag.String("corpus", "", "write each scheme's worst case as a scenario file into this directory, with outcomes pinned for all six schemes")
		progress    = flag.Bool("progress", true, "narrate search phases on stderr")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	logFlags := obs.AddLogFlags(flag.CommandLine)
	prof = profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println("padsearch", version.String())
		return
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()

	names, err := parseSchemes(*schemeList)
	if err != nil {
		fatal(err)
	}

	env := attacksearch.Env{
		Racks:          *racks,
		ServersPerRack: *spr,
		Duration:       *duration,
		Tick:           *tick,
		BGMean:         *bgMean,
	}
	if *quick {
		if env.Racks == 0 {
			env.Racks = 3
		}
		if env.ServersPerRack == 0 {
			env.ServersPerRack = 4
		}
		if env.Duration == 0 {
			env.Duration = 30 * time.Second
		}
		env.PatienceS = 12
		env.PrepS = 1
		env.NodesPerGroup = 3
	}

	cfg := attacksearch.Config{
		Schemes: names,
		Budget:  *budget,
		Seed:    *seed,
		Workers: *workers,
		Env:     env,
	}
	if *progress {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "padsearch: "+format+"\n", args...)
		}
	}
	logger.Debug("search configured",
		"schemes", names, "budget", *budget, "seed", *seed, "workers", *workers, "quick", *quick)

	start := time.Now()
	rep, err := attacksearch.Search(cfg)
	if err != nil {
		fatal(err)
	}
	logger.Debug("search finished", "elapsed", time.Since(start))

	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error {
			return attacksearch.WriteFrontierCSV(f, rep)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "padsearch: frontier written to %s\n", *csvPath)
	}
	if *jsonlPath != "" {
		if err := writeFile(*jsonlPath, func(f *os.File) error {
			return attacksearch.WriteEvalsJSONL(f, rep)
		}); err != nil {
			fatal(err)
		}
	}
	if *corpusDir != "" {
		if err := exportCorpus(*corpusDir, rep); err != nil {
			fatal(err)
		}
	}
	if err := attacksearch.Summarize(os.Stdout, rep); err != nil {
		fatal(err)
	}
}

// parseSchemes resolves a case-insensitive comma list against the
// canonical scheme names.
func parseSchemes(list string) ([]string, error) {
	if strings.EqualFold(strings.TrimSpace(list), "all") {
		return nil, nil // Search defaults to all six
	}
	var out []string
	for _, raw := range strings.Split(list, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		found := ""
		for _, name := range schemes.SchemeNames {
			if strings.EqualFold(raw, name) {
				found = name
				break
			}
		}
		if found == "" {
			return nil, fmt.Errorf("unknown scheme %q (want one of %v)", raw, schemes.SchemeNames)
		}
		out = append(out, found)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no schemes in %q", list)
	}
	return out, nil
}

// exportCorpus writes each scheme's best attack as a corpus scenario
// with outcomes pinned for all six schemes.
func exportCorpus(dir string, rep *attacksearch.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sr := range rep.Schemes {
		scen := sr.Best.Scenario
		scen.Name = "corpus/" + strings.ToLower(sr.Scheme) + "-worst"
		if err := attacksearch.FillExpectations(&scen); err != nil {
			return err
		}
		path := filepath.Join(dir, strings.ToLower(sr.Scheme)+"-worst.json")
		if err := attacksearch.WriteScenario(path, scen); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "padsearch: corpus scenario written to %s (score %.4f)\n",
			path, sr.Best.Outcome.Score)
	}
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padsearch:", err)
	if prof != nil {
		prof.Stop() // os.Exit skips defers; keep partial profiles usable
	}
	os.Exit(1)
}
