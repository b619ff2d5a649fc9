// Command experiments regenerates every measured table and figure of the
// paper. Each experiment prints its summary table to stdout and writes
// CSV (and, for the map figures, heat-map text) under -results.
//
// Usage:
//
//	experiments                 # full-scale run of everything
//	experiments -quick          # second-scale run, shapes preserved
//	experiments -only fig15     # one experiment
//	experiments -workers 1      # sequential legacy path
//
// Independent simulation runs within each experiment fan out across
// -workers goroutines (default: GOMAXPROCS). The output is byte-identical
// at any worker count; -workers 1 runs everything inline on the calling
// goroutine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/version"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

type experiment struct {
	name string
	run  func(experiments.Params, string) error
}

// all lists every experiment in run order; -only selects among them.
var all = []experiment{
	{"fig1", runFig1}, {"fig5", runFig5}, {"fig6", runFig6},
	{"fig7", runFig7}, {"fig8a", runFig8A}, {"fig8b", runFig8B},
	{"fig8c", runFig8C}, {"table1", runTable1}, {"fig12", runFig12},
	{"fig13", runFig13}, {"fig14", runFig14}, {"fig15", runFig15},
	{"fig16a", runFig16A}, {"fig16b", runFig16B}, {"fig17", runFig17},
	{"ablations", runAblations},
}

// selectExperiments returns the experiments named in only, a
// comma-separated, case-insensitive list, in run order; an empty list
// selects them all. A name that matches no experiment is an error
// listing the valid ones, so a misspelt or retired name cannot pass
// having run nothing.
func selectExperiments(only string) ([]experiment, error) {
	selected := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		if n = strings.TrimSpace(strings.ToLower(n)); n != "" {
			selected[n] = true
		}
	}
	if len(selected) == 0 {
		return all, nil
	}
	var run []experiment
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.name
		if selected[e.name] {
			run = append(run, e)
			delete(selected, e.name)
		}
	}
	if len(selected) > 0 {
		unknown := make([]string, 0, len(selected))
		for n := range selected {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s; valid names: %s",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return run, nil
}

func main() {
	var (
		quick       = flag.Bool("quick", false, "run second-scale versions (shapes preserved)")
		seed        = flag.Uint64("seed", 1, "random seed")
		only        = flag.String("only", "", "comma-separated experiment names (fig5, table1, ..., ablations); empty runs all")
		results     = flag.String("results", "results", "output directory for CSV artifacts")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker goroutines (1 = sequential)")
		progress    = flag.Bool("progress", false, "report per-run progress and ETA on stderr")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	logFlags := obs.AddLogFlags(flag.CommandLine)
	prof = profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println("experiments", version.String())
		return
	}
	run, err := selectExperiments(*only)
	if err != nil {
		fatal(err)
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

	p := experiments.Params{Quick: *quick, Seed: *seed, Workers: *workers}
	if *progress {
		p.Progress = func(pr runner.Progress) {
			logger.Info("run finished",
				"done", pr.Done, "total", pr.Total, "key", pr.Key,
				"elapsed", pr.Elapsed.Round(time.Second), "eta", pr.ETA.Round(time.Second))
		}
	}
	if err := os.MkdirAll(*results, 0o755); err != nil {
		fatal(err)
	}

	for _, r := range run {
		start := time.Now()
		logger.Debug("experiment starting", "name", r.name)
		if err := r.run(p, *results); err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		fmt.Printf("[%s done in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	if prof != nil {
		prof.Stop() // os.Exit skips defers; keep partial profiles usable
	}
	os.Exit(1)
}

// emit prints the table and writes it as CSV under dir.
func emit(tbl *report.Table, dir, name string) error {
	fmt.Println(tbl.String())
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}

// emitChart writes an ASCII chart alongside an experiment's CSV.
func emitChart(render interface{ Render(io.Writer) error }, dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render.Render(os.Stdout); err != nil {
		return err
	}
	return render.Render(f)
}

// emitMap prints a compact note and writes the heat map text and CSV.
func emitMap(h *report.Heatmap, dir, name string) error {
	txt, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := h.Render(txt); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	return h.WriteCSV(csvf)
}

func runFig1(p experiments.Params, dir string) error {
	r, err := experiments.Fig1(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig1_outage_cost_cdf")
}

func runFig5(p experiments.Params, dir string) error {
	r, err := experiments.Fig5(p)
	if err != nil {
		return err
	}
	if err := emit(r.Table, dir, "fig5_soc_variation"); err != nil {
		return err
	}
	chart := &report.LineChart{
		Title: "Figure 5 — stddev of rack battery SOC (%)",
		Series: []report.ChartSeries{
			{Name: "online", Values: r.Online.Values},
			{Name: "offline", Values: r.Offline.Values},
		},
	}
	return emitChart(chart, dir, "fig5_chart")
}

func runFig6(p experiments.Params, dir string) error {
	r, err := experiments.Fig6(p)
	if err != nil {
		return err
	}
	fmt.Printf("Phase II began at %v; attacker learned a %v drain time\n",
		r.PhaseIIStart, r.LearnedDrain)
	return emit(r.Table, dir, "fig6_two_phase_demo")
}

func runFig7(p experiments.Params, dir string) error {
	r, err := experiments.Fig7(p)
	if err != nil {
		return err
	}
	fmt.Printf("%d effective attacks against the drained rack\n", r.EffectiveAttacks)
	return emit(r.Table, dir, "fig7_effective_attack_demo")
}

func runFig8A(p experiments.Params, dir string) error {
	r, err := experiments.Fig8A(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig8a_nodes")
}

func runFig8B(p experiments.Params, dir string) error {
	r, err := experiments.Fig8B(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig8b_width")
}

func runFig8C(p experiments.Params, dir string) error {
	r, err := experiments.Fig8C(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig8c_frequency")
}

func runTable1(p experiments.Params, dir string) error {
	r, err := experiments.Table1(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "table1_detection_rates")
}

func runFig12(p experiments.Params, dir string) error {
	r, err := experiments.Fig12(p)
	if err != nil {
		return err
	}
	if err := emit(r.Table, dir, "fig12_attack_traces"); err != nil {
		return err
	}
	chart := &report.LineChart{
		Title: "Figure 12 — dense (*) vs sparse (o) attack traces (utilization)",
		Series: []report.ChartSeries{
			{Name: "dense", Values: r.Dense.Values},
			{Name: "sparse", Values: r.Sparse.Values},
		},
	}
	return emitChart(chart, dir, "fig12_chart")
}

func runFig13(p experiments.Params, dir string) error {
	r, err := experiments.Fig13(p)
	if err != nil {
		return err
	}
	if err := emitMap(r.ConvMap, dir, "fig13_conventional_map"); err != nil {
		return err
	}
	if err := emitMap(r.PADMap, dir, "fig13_pad_map"); err != nil {
		return err
	}
	return emit(r.Table, dir, "fig13_summary")
}

func runFig14(p experiments.Params, dir string) error {
	r, err := experiments.Fig14(p)
	if err != nil {
		return err
	}
	if err := emitMap(r.BeforeMap, dir, "fig14_before_map"); err != nil {
		return err
	}
	if err := emitMap(r.AfterMap, dir, "fig14_after_map"); err != nil {
		return err
	}
	return emit(r.Table, dir, "fig14_summary")
}

func runFig15(p experiments.Params, dir string) error {
	r, err := experiments.Fig15(p)
	if err != nil {
		return err
	}
	if err := emit(r.Table, dir, "fig15_survival_times"); err != nil {
		return err
	}
	chart := &report.BarChart{Title: "Figure 15 — average survival time (s)"}
	names := make([]string, 0, len(r.AvgSurvival))
	for name := range r.AvgSurvival {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		return r.AvgSurvival[names[a]] < r.AvgSurvival[names[b]]
	})
	for _, name := range names {
		chart.Bars = append(chart.Bars, report.Bar{
			Label: name, Value: r.AvgSurvival[name].Seconds(),
		})
	}
	return emitChart(chart, dir, "fig15_survival_chart")
}

func runFig16A(p experiments.Params, dir string) error {
	r, err := experiments.Fig16A(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig16a_throughput_vs_rate")
}

func runFig16B(p experiments.Params, dir string) error {
	r, err := experiments.Fig16B(p)
	if err != nil {
		return err
	}
	return emit(r.Table, dir, "fig16b_throughput_vs_width")
}

func runFig17(p experiments.Params, dir string) error {
	r, err := experiments.Fig17(p)
	if err != nil {
		return err
	}
	if err := emit(r.Table, dir, "fig17_cost_efficiency"); err != nil {
		return err
	}
	var surv, costs []float64
	for _, pt := range r.Points {
		surv = append(surv, pt.NormalizedSurvival)
		costs = append(costs, pt.CostRatio)
	}
	chart := &report.LineChart{
		Title: "Figure 17 — normalized survival (*) and cost ratio % (o) vs μDEB capacity",
		Series: []report.ChartSeries{
			{Name: "normalized survival", Values: surv},
			{Name: "cost ratio %", Values: costs},
		},
	}
	return emitChart(chart, dir, "fig17_chart")
}

func runAblations(p experiments.Params, dir string) error {
	for _, a := range []struct {
		name string
		run  func(experiments.Params) (*experiments.AblationResult, error)
	}{
		{"ablation_pideal", experiments.AblationPIdeal},
		{"ablation_detectors", experiments.AblationDetectors},
		{"ablation_placement", experiments.AblationPlacement},
		{"ablation_economics", experiments.AblationEconomics},
		{"ablation_jitter", experiments.AblationJitter},
		{"ablation_topology", experiments.AblationTopology},
	} {
		r, err := a.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if err := emit(r.Table, dir, a.name); err != nil {
			return err
		}
	}
	return nil
}
