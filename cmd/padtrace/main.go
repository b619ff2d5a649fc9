// Command padtrace analyzes engine event traces in JSONL format: the
// files padsim's -trace flag writes, and a live padd session's event
// log. For each trace it computes the run's defense profile — time spent
// at each Figure-9 security level, per attack phase time-to-detection,
// the run-minimum breaker margin, shed totals and event tallies — and
// prints them side by side as an aligned table, or as CSV for downstream
// plotting.
//
// Usage:
//
//	padsim -scheme PAD -trace pad.trace
//	padsim -compare -trace run.trace       # writes run.PAD.trace, run.Conv.trace, ...
//	padtrace run.*.trace
//	padtrace -csv run.*.trace > summary.csv
//	curl -s localhost:8484/v1/sessions/s1/events | padtrace -
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/version"
)

func main() {
	var (
		csvOut      = flag.Bool("csv", false, "emit one CSV row per trace instead of the table")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: padtrace [-csv] trace.jsonl ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println("padtrace", version.String())
		return
	}
	if flag.NArg() == 0 {
		fatal(errors.New("no trace files (padsim -trace FILE writes one; - reads stdin)"))
	}

	var sums []traceSummary
	for _, path := range flag.Args() {
		s, err := load(path)
		if err != nil {
			fatal(err)
		}
		if s.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "padtrace: %s: %d events dropped on ring overflow; summary covers only the events kept\n",
				path, s.Dropped)
		}
		sums = append(sums, s)
	}

	var err error
	if *csvOut {
		err = writeCSV(os.Stdout, sums)
	} else {
		err = writeTable(os.Stdout, sums)
	}
	if err != nil {
		fatal(err)
	}
}

// traceSummary pairs one trace file with its analysis.
type traceSummary struct {
	Path string
	obs.Summary
}

// load reads one JSONL trace ("-" = stdin) and summarizes it.
func load(path string) (traceSummary, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return traceSummary{}, err
		}
		defer f.Close()
		r = f
	}
	meta, events, foot, err := obs.ReadJSONL(r)
	if err != nil {
		return traceSummary{}, fmt.Errorf("%s: %w", path, err)
	}
	return traceSummary{Path: path, Summary: obs.Summarize(meta, events, foot)}, nil
}

// detection returns the time-to-detection of the given attack phase:
// present reports whether the trace saw the phase at all, and a negative
// duration means the phase went undetected.
func detection(s obs.Summary, phase int) (d time.Duration, present bool) {
	for _, p := range s.Phases {
		if p.Phase == phase {
			return p.Detection, true
		}
	}
	return 0, false
}

// phaseCell renders a time-to-detection table cell.
func phaseCell(s obs.Summary, phase int) string {
	d, present := detection(s, phase)
	switch {
	case !present:
		return "-"
	case d < 0:
		return "undetected"
	default:
		return fmtDur(d)
	}
}

// fmtDur trims a duration for table display.
func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// writeTable renders the per-scheme comparison as an aligned table; the
// column set mirrors the paper's defense narrative (Figure 9 dwell,
// Figure 11 time-to-detection, breaker margins, shed cost).
func writeTable(w io.Writer, sums []traceSummary) error {
	cols := []struct {
		head string
		cell func(traceSummary) string
	}{
		{"scheme", func(s traceSummary) string { return s.Meta.Scheme }},
		{"run", func(s traceSummary) string { return fmtDur(runLength(s.Summary)) }},
		{"events", func(s traceSummary) string { return strconv.Itoa(s.Events) }},
		{"dwell L1", func(s traceSummary) string { return fmtDur(s.Dwell[1]) }},
		{"dwell L2", func(s traceSummary) string { return fmtDur(s.Dwell[2]) }},
		{"dwell L3", func(s traceSummary) string { return fmtDur(s.Dwell[3]) }},
		{"detect I", func(s traceSummary) string { return phaseCell(s.Summary, 1) }},
		{"detect II", func(s traceSummary) string { return phaseCell(s.Summary, 2) }},
		{"min margin", func(s traceSummary) string {
			if !s.MinMarginSet {
				return "-"
			}
			feed := "PDU"
			if s.MinMarginRack >= 0 {
				feed = fmt.Sprintf("rack %d", s.MinMarginRack)
			}
			return fmt.Sprintf("%.0f W (%s)", s.MinMargin, feed)
		}},
		{"sheds", func(s traceSummary) string {
			if s.ShedEngagements == 0 {
				return "-"
			}
			return fmt.Sprintf("%d (max %d, %s srv·s)",
				s.ShedEngagements, s.MaxShedServers, strconv.FormatFloat(s.ShedServerTime.Seconds(), 'f', 1, 64))
		}},
		{"overloads", func(s traceSummary) string { return strconv.Itoa(s.Overloads) }},
		{"trips", func(s traceSummary) string { return strconv.Itoa(s.Trips) }},
	}

	rows := make([][]string, 0, len(sums)+1)
	head := make([]string, len(cols))
	for i, c := range cols {
		head[i] = c.head
	}
	rows = append(rows, head)
	for _, s := range sums {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = c.cell(s)
		}
		rows = append(rows, row)
	}

	width := make([]int, len(cols))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			pad := ""
			if i < len(row)-1 {
				pad = strings.Repeat(" ", width[i]-len(cell)+2)
			}
			if _, err := fmt.Fprintf(w, "%s%s", cell, pad); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// runLength is the trace's realized run duration (header ticks, or the
// dwell total when the writer never finalized the header).
func runLength(s obs.Summary) time.Duration {
	if s.Meta.Ticks > 0 {
		return s.Meta.Time(s.Meta.Ticks)
	}
	return s.Dwell[0] + s.Dwell[1] + s.Dwell[2] + s.Dwell[3]
}

// writeCSV emits one row per trace. Durations are in seconds; an empty
// detection cell means the phase was absent, and -1 means undetected.
func writeCSV(w io.Writer, sums []traceSummary) error {
	cw := csv.NewWriter(w)
	header := []string{
		"file", "scheme", "run_s", "events", "dropped",
		"dwell_l0_s", "dwell_l1_s", "dwell_l2_s", "dwell_l3_s",
		"detect_phase1_s", "detect_phase2_s",
		"min_margin_w", "min_margin_rack",
		"shed_engagements", "max_shed_servers", "shed_server_s",
		"overloads", "trips", "micro_shaves", "micro_joules",
		"vdeb_refreshes", "max_shave_w",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	secs := func(d time.Duration) string {
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	detCell := func(s obs.Summary, phase int) string {
		d, present := detection(s, phase)
		switch {
		case !present:
			return ""
		case d < 0:
			return "-1"
		default:
			return secs(d)
		}
	}
	for _, s := range sums {
		marginW, marginRack := "", ""
		if s.MinMarginSet {
			marginW = strconv.FormatFloat(s.MinMargin, 'g', -1, 64)
			marginRack = strconv.Itoa(int(s.MinMarginRack))
		}
		row := []string{
			s.Path, s.Meta.Scheme, secs(runLength(s.Summary)),
			strconv.Itoa(s.Events), strconv.FormatUint(s.Dropped, 10),
			secs(s.Dwell[0]), secs(s.Dwell[1]), secs(s.Dwell[2]), secs(s.Dwell[3]),
			detCell(s.Summary, 1), detCell(s.Summary, 2),
			marginW, marginRack,
			strconv.Itoa(s.ShedEngagements), strconv.Itoa(s.MaxShedServers), secs(s.ShedServerTime),
			strconv.Itoa(s.Overloads), strconv.Itoa(s.Trips),
			strconv.Itoa(s.MicroShaves), strconv.FormatFloat(s.MicroJoules, 'g', -1, 64),
			strconv.Itoa(s.VDEBRefreshes), strconv.FormatFloat(s.MaxShaveDemand, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padtrace:", err)
	os.Exit(1)
}
