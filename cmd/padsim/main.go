// Command padsim runs one power-attack simulation: a battery-backed
// cluster under a two-phase power virus, managed by one of the six
// evaluated schemes, and prints survival time, overload counts and
// throughput.
//
// Usage:
//
//	padsim -scheme PAD -racks 22 -duration 30m -attack-nodes 4 \
//	       -profile CPU -spike-width 4s -spikes-per-min 6
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/version"
	"repro/internal/virus"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		schemeName  = flag.String("scheme", "PAD", "power management scheme: Conv, PS, PSPC, uDEB, vDEB, PAD")
		racks       = flag.Int("racks", 22, "number of racks")
		spr         = flag.Int("servers-per-rack", 10, "servers per rack")
		duration    = flag.Duration("duration", 30*time.Minute, "simulated time span")
		tick        = flag.Duration("tick", 100*time.Millisecond, "simulation step")
		ratio       = flag.Float64("oversubscription", 0.75, "PDU budget as a fraction of total nameplate")
		tolerance   = flag.Float64("overshoot", 0.08, "tolerated overload fraction above budget")
		bgMean      = flag.Float64("background", 0.55, "mean background CPU utilization")
		seed        = flag.Uint64("seed", 1, "random seed")
		attackNodes = flag.Int("attack-nodes", 4, "number of compromised servers (0 disables the attack)")
		profileName = flag.String("profile", "CPU", "virus profile: CPU, Mem, IO")
		spikeWidth  = flag.Duration("spike-width", 4*time.Second, "Phase-II spike width")
		spikesPM    = flag.Float64("spikes-per-min", 6, "Phase-II spike frequency")
		microFrac   = flag.Float64("micro-fraction", schemes.DefaultMicroFraction, "μDEB energy as a fraction of the rack battery (uDEB/PAD)")
		stopOnTrip  = flag.Bool("stop-on-trip", true, "end the run at the first breaker trip")
		compare     = flag.Bool("compare", false, "run all six schemes and chart their survival")
		tracePath   = flag.String("trace", "", "write an engine event trace to this file for cmd/padtrace (with -compare, the scheme name is inserted before the extension)")
		chart       = flag.Bool("chart", false, "plot the cluster feed draw and mean battery SOC over the run")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for -compare (1 = sequential)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	logFlags := obs.AddLogFlags(flag.CommandLine)
	prof = profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println("padsim", version.String())
		return
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := checkShape(*racks, *spr); err != nil {
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

	cfg := sim.Config{
		Racks:                 *racks,
		ServersPerRack:        *spr,
		Duration:              *duration,
		Tick:                  *tick,
		OversubscriptionRatio: *ratio,
		OvershootTolerance:    *tolerance,
		Background:            noisyBackground(*racks**spr, *bgMean, *duration, *seed),
		StopOnTrip:            *stopOnTrip,
	}
	logger.Debug("scenario configured",
		"scheme", *schemeName, "compare", *compare, "racks", *racks,
		"servers_per_rack", *spr, "duration", *duration, "tick", *tick,
		"attack_nodes", *attackNodes, "seed", *seed)
	// An Attack is stateful and stepped by the engine, so every run needs
	// its own instance; mkAttacks builds one from the flags.
	mkAttacks := func() []sim.AttackSpec {
		if *attackNodes <= 0 {
			return nil
		}
		prof, err := virus.ProfileByName(*profileName)
		if err != nil {
			fatal(err)
		}
		servers := make([]int, *attackNodes)
		for i := range servers {
			servers[i] = i
		}
		atk, err := virus.New(virus.Config{
			Profile:         prof,
			SpikeWidth:      *spikeWidth,
			SpikesPerMinute: *spikesPM,
			Seed:            *seed,
		})
		if err != nil {
			fatal(err)
		}
		return []sim.AttackSpec{{Servers: servers, Attack: atk}}
	}

	if *compare {
		runComparison(cfg, mkAttacks, *microFrac, *workers, *tracePath)
		return
	}
	cfg.Attacks = mkAttacks()
	scheme, err := schemes.Deploy(&cfg, *schemeName, *microFrac)
	if err != nil {
		fatal(err)
	}

	if *chart {
		cfg.Record = true
		cfg.RecordStep = cfg.Duration / 72
		if cfg.RecordStep < cfg.Tick {
			cfg.RecordStep = cfg.Tick
		}
	}
	var trace *tracerFile
	if *tracePath != "" {
		trace, err = openTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		cfg.Trace = trace.tr
	}
	res, err := sim.Run(cfg, scheme)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scheme:            %s\n", res.Scheme)
	fmt.Printf("survival time:     %v", res.SurvivalTime)
	if !res.Tripped {
		fmt.Printf(" (no breaker trip within the horizon)")
	} else if res.FirstTripRack >= 0 {
		fmt.Printf(" (rack %d feed tripped)", res.FirstTripRack)
	} else {
		fmt.Printf(" (cluster PDU tripped)")
	}
	fmt.Println()
	fmt.Printf("effective attacks: %d\n", res.EffectiveAttacks)
	fmt.Printf("throughput:        %.4f\n", res.Throughput)
	fmt.Printf("mean shed ratio:   %.4f\n", res.MeanShedRatio)
	fmt.Printf("battery energy:    %v\n", res.EnergyFromBatteries)
	fmt.Printf("μDEB energy:       %v\n", res.EnergyFromMicro)
	if trace != nil {
		events, dropped := trace.tr.Len(), trace.tr.Dropped()
		if err := trace.close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:             %s (%d events, %d dropped)\n", *tracePath, events, dropped)
	}
	if *chart && res.Recording != nil {
		fmt.Println()
		renderTimeline(res.Recording)
	}
}

// renderTimeline plots the cluster feed draw and the fleet-mean battery
// SOC over the run.
func renderTimeline(rec *sim.Recording) {
	meanSOC := make([]float64, 0, rec.TotalGrid.Len())
	for i := 0; i < rec.TotalGrid.Len(); i++ {
		sum := 0.0
		for _, s := range rec.RackSOC {
			sum += s.Values[i]
		}
		meanSOC = append(meanSOC, sum/float64(len(rec.RackSOC))*100)
	}
	grid := &report.LineChart{
		Title:  "Cluster feed draw (W) over the run",
		Series: []report.ChartSeries{{Name: "grid draw", Values: rec.TotalGrid.Values}},
	}
	if err := grid.Render(os.Stdout); err != nil {
		fatal(err)
	}
	soc := &report.LineChart{
		Title:  "Fleet-mean battery SOC (%) over the run",
		YMin:   0,
		YMax:   100,
		Series: []report.ChartSeries{{Name: "mean SOC", Values: meanSOC}},
	}
	if err := soc.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// checkShape rejects a cluster shape with no servers before the
// background is sized from it.
func checkShape(racks, spr int) error {
	if racks < 1 {
		return fmt.Errorf("-racks must be at least 1, got %d", racks)
	}
	if spr < 1 {
		return fmt.Errorf("-servers-per-rack must be at least 1, got %d", spr)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padsim:", err)
	if prof != nil {
		prof.Stop() // os.Exit skips defers; keep partial profiles usable
	}
	os.Exit(1)
}

// tracerFile couples a run's tracer to the file backing its sink so the
// two close together.
type tracerFile struct {
	tr *obs.Tracer
	f  *os.File
}

// openTrace creates path and attaches a fresh tracer flushing JSONL to
// it.
func openTrace(path string) (*tracerFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracerFile{tr: obs.NewTracer(0, obs.NewJSONLSink(f)), f: f}, nil
}

// close flushes the trace footer and closes the file.
func (t *tracerFile) close() error {
	if err := t.tr.Close(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// comparePath derives the per-scheme trace path under -compare by
// inserting the scheme name before the extension: run.trace -> run.PAD.trace.
func comparePath(path, scheme string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + scheme + ext
}

// runComparison executes the same scenario under all six schemes in the
// worker pool and prints a survival bar chart. Each run gets its own
// Config copy and a fresh Attack instance (the Attack is stateful), so
// every scheme faces the identical scenario and the bars are independent
// of the worker count.
func runComparison(base sim.Config, mkAttacks func() []sim.AttackSpec,
	microFrac float64, workers int, tracePath string) {
	var jobs []runner.Job[*sim.Result]
	for _, name := range schemes.SchemeNames {
		jobs = append(jobs, runner.Job[*sim.Result]{
			Key: "padsim/compare/" + name,
			Run: func() (*sim.Result, error) {
				cfg := base
				cfg.Key = "padsim/compare/" + name
				cfg.Attacks = mkAttacks()
				scheme, err := schemes.Deploy(&cfg, name, microFrac)
				if err != nil {
					return nil, err
				}
				if tracePath == "" {
					return sim.Run(cfg, scheme)
				}
				// Each concurrent run writes its own per-scheme trace file
				// through its own tracer; goroutine confinement holds.
				trace, err := openTrace(comparePath(tracePath, name))
				if err != nil {
					return nil, err
				}
				cfg.Trace = trace.tr
				res, err := sim.Run(cfg, scheme)
				if cerr := trace.close(); err == nil {
					err = cerr
				}
				return res, err
			},
		})
	}
	results, err := runner.Collect(runner.Pool{Workers: workers}, jobs)
	if err != nil {
		fatal(err)
	}
	chart := &report.BarChart{Title: "Survival time (s) under this scenario"}
	for i, name := range schemes.SchemeNames {
		res := results[i]
		label := name
		if !res.Tripped {
			label += " (no trip)"
		}
		chart.Bars = append(chart.Bars, report.Bar{Label: label, Value: res.SurvivalTime.Seconds()})
	}
	if err := chart.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if tracePath != "" {
		for _, name := range schemes.SchemeNames {
			fmt.Printf("trace: %-5s %s\n", name, comparePath(tracePath, name))
		}
	}
}

func noisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	return stats.NoisyUtilization(servers, mean, horizon, 10*time.Second, seed)
}
