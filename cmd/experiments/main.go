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
// -workers (default: GOMAXPROCS) bounds the simulation runs in flight
// across the whole invocation: every experiment's independent runs draw
// from one budget of that many slots, and two experiments run at once,
// so one's serial setup or last runs overlap the other's. Each
// experiment's stdout is held until it and every experiment before it
// have finished, then printed in run order. The output is
// byte-identical at any worker count; -workers 1 runs one experiment at
// a time, each with its runs inline.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
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
	run  func(experiments.Params, *output) error
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
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation runs at once, across all experiments (1 = sequential)")
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

	if err := runAll(os.Stdout, p, *results, run); err != nil {
		fatal(err)
	}
}

// maxInFlight is how many experiments run at once. A second keeps the
// budget's slots busy while the first builds its backgrounds or waits
// on its last runs; two bound the peak memory to two experiments'
// backgrounds.
const maxInFlight = 2

// runAll runs the experiments on one budget of p.Workers simulation
// runs, at most maxInFlight of them at a time (one when the budget has
// one slot), starting each in run order as a place frees up. Each
// writes its stdout into its own buffer; w receives the buffers in run
// order, each followed by its "[name done in D]" line, where D is the
// experiment's own wall time. It returns the first error in run order,
// after printing what that experiment wrote, without waiting for the
// experiments still running, so the caller should exit.
func runAll(w io.Writer, p experiments.Params, dir string, run []experiment) error {
	p = p.Shared()
	type outcome struct {
		out  output
		err  error
		took time.Duration
		done chan struct{}
	}
	outs := make([]outcome, len(run))
	for i := range outs {
		outs[i].out.dir = dir
		outs[i].done = make(chan struct{})
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Shared has resolved a Workers of 0 or below, so this is never 0.
		places := make(chan struct{}, min(maxInFlight, p.Workers))
		for i, e := range run {
			select {
			case places <- struct{}{}:
			case <-stop:
				return
			}
			go func() {
				o := &outs[i]
				slog.Debug("experiment starting", "name", e.name)
				start := time.Now()
				o.err = e.run(p, &o.out)
				o.took = time.Since(start)
				<-places
				close(o.done)
			}()
		}
	}()
	for i, e := range run {
		o := &outs[i]
		<-o.done
		if _, err := w.Write(o.out.Bytes()); err != nil {
			return err
		}
		if o.err != nil {
			return fmt.Errorf("%s: %w", e.name, o.err)
		}
		if _, err := fmt.Fprintf(w, "[%s done in %v]\n\n", e.name, o.took.Round(time.Millisecond)); err != nil {
			return err
		}
		o.out = output{}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	if prof != nil {
		prof.Stop() // os.Exit skips defers; keep partial profiles usable
	}
	os.Exit(1)
}

// output is where one experiment writes: its stdout, held until the
// driver prints it, and its files under dir.
type output struct {
	bytes.Buffer
	dir string
}

// emit prints the table and writes it as CSV.
func (o *output) emit(tbl *report.Table, name string) error {
	fmt.Fprintln(o, tbl.String())
	f, err := os.Create(filepath.Join(o.dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}

// emitChart prints an ASCII chart and writes it beside the experiment's
// CSV.
func (o *output) emitChart(render interface{ Render(io.Writer) error }, name string) error {
	f, err := os.Create(filepath.Join(o.dir, name+".txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render.Render(o); err != nil {
		return err
	}
	return render.Render(f)
}

// emitMap writes the heat map text and CSV; it prints nothing.
func (o *output) emitMap(h *report.Heatmap, name string) error {
	txt, err := os.Create(filepath.Join(o.dir, name+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := h.Render(txt); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(o.dir, name+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	return h.WriteCSV(csvf)
}

func runFig1(p experiments.Params, o *output) error {
	r, err := experiments.Fig1(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig1_outage_cost_cdf")
}

func runFig5(p experiments.Params, o *output) error {
	r, err := experiments.Fig5(p)
	if err != nil {
		return err
	}
	if err := o.emit(r.Table, "fig5_soc_variation"); err != nil {
		return err
	}
	chart := &report.LineChart{
		Title: "Figure 5 — stddev of rack battery SOC (%)",
		Series: []report.ChartSeries{
			{Name: "online", Values: r.Online.Values},
			{Name: "offline", Values: r.Offline.Values},
		},
	}
	return o.emitChart(chart, "fig5_chart")
}

func runFig6(p experiments.Params, o *output) error {
	r, err := experiments.Fig6(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(o, "Phase II began at %v; attacker learned a %v drain time\n",
		r.PhaseIIStart, r.LearnedDrain)
	return o.emit(r.Table, "fig6_two_phase_demo")
}

func runFig7(p experiments.Params, o *output) error {
	r, err := experiments.Fig7(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(o, "%d effective attacks against the drained rack\n", r.EffectiveAttacks)
	return o.emit(r.Table, "fig7_effective_attack_demo")
}

func runFig8A(p experiments.Params, o *output) error {
	r, err := experiments.Fig8A(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig8a_nodes")
}

func runFig8B(p experiments.Params, o *output) error {
	r, err := experiments.Fig8B(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig8b_width")
}

func runFig8C(p experiments.Params, o *output) error {
	r, err := experiments.Fig8C(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig8c_frequency")
}

func runTable1(p experiments.Params, o *output) error {
	r, err := experiments.Table1(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "table1_detection_rates")
}

func runFig12(p experiments.Params, o *output) error {
	r, err := experiments.Fig12(p)
	if err != nil {
		return err
	}
	if err := o.emit(r.Table, "fig12_attack_traces"); err != nil {
		return err
	}
	chart := &report.LineChart{
		Title: "Figure 12 — dense (*) vs sparse (o) attack traces (utilization)",
		Series: []report.ChartSeries{
			{Name: "dense", Values: r.Dense.Values},
			{Name: "sparse", Values: r.Sparse.Values},
		},
	}
	return o.emitChart(chart, "fig12_chart")
}

func runFig13(p experiments.Params, o *output) error {
	r, err := experiments.Fig13(p)
	if err != nil {
		return err
	}
	if err := o.emitMap(r.ConvMap, "fig13_conventional_map"); err != nil {
		return err
	}
	if err := o.emitMap(r.PADMap, "fig13_pad_map"); err != nil {
		return err
	}
	return o.emit(r.Table, "fig13_summary")
}

func runFig14(p experiments.Params, o *output) error {
	r, err := experiments.Fig14(p)
	if err != nil {
		return err
	}
	if err := o.emitMap(r.BeforeMap, "fig14_before_map"); err != nil {
		return err
	}
	if err := o.emitMap(r.AfterMap, "fig14_after_map"); err != nil {
		return err
	}
	return o.emit(r.Table, "fig14_summary")
}

func runFig15(p experiments.Params, o *output) error {
	r, err := experiments.Fig15(p)
	if err != nil {
		return err
	}
	if err := o.emit(r.Table, "fig15_survival_times"); err != nil {
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
	return o.emitChart(chart, "fig15_survival_chart")
}

func runFig16A(p experiments.Params, o *output) error {
	r, err := experiments.Fig16A(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig16a_throughput_vs_rate")
}

func runFig16B(p experiments.Params, o *output) error {
	r, err := experiments.Fig16B(p)
	if err != nil {
		return err
	}
	return o.emit(r.Table, "fig16b_throughput_vs_width")
}

func runFig17(p experiments.Params, o *output) error {
	r, err := experiments.Fig17(p)
	if err != nil {
		return err
	}
	if err := o.emit(r.Table, "fig17_cost_efficiency"); err != nil {
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
	return o.emitChart(chart, "fig17_chart")
}

func runAblations(p experiments.Params, o *output) error {
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
		if err := o.emit(r.Table, a.name); err != nil {
			return err
		}
	}
	return nil
}
