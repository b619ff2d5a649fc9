package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a minimal Prometheus-style metrics registry: counters,
// gauges and fixed-bucket histograms, rendered in the text exposition
// format. Hand-rolled because the build carries no client library; the
// output is byte-compatible with what the padd daemon historically
// emitted, which a golden test in internal/padd pins.
//
// Families render in registration order; series within a family render
// sorted by label value. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*Family
	byName   map[string]*Family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

type familyKind uint8

const (
	gaugeKind familyKind = iota
	counterKind
	histogramKind
)

func (k familyKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case histogramKind:
		return "histogram"
	default:
		return "gauge"
	}
}

// Family is one named metric with zero or more label-distinguished
// series. A family declared with an empty label name holds a single
// unlabeled series, addressed with the empty label value.
type Family struct {
	reg    *Registry
	name   string
	help   string
	label  string
	kind   familyKind
	bounds []float64 // histogram bucket upper bounds, ascending

	series map[string]*series
}

type series struct {
	value  float64
	counts []uint64 // histogram per-bucket counts; index len(bounds) is +Inf
	sum    float64
	total  uint64
}

func (r *Registry) family(name, help, label string, kind familyKind, bounds []float64) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
		}
		return f
	}
	f := &Family{
		reg: r, name: name, help: help, label: label, kind: kind,
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Gauge declares (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help, label string) *Family {
	return r.family(name, help, label, gaugeKind, nil)
}

// Counter declares (or returns the existing) counter family.
func (r *Registry) Counter(name, help, label string) *Family {
	return r.family(name, help, label, counterKind, nil)
}

// Histogram declares (or returns the existing) histogram family with the
// given ascending bucket upper bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help, label string, bounds []float64) *Family {
	return r.family(name, help, label, histogramKind, bounds)
}

func (f *Family) at(label string) *series {
	s, ok := f.series[label]
	if !ok {
		s = &series{}
		if f.kind == histogramKind {
			s.counts = make([]uint64, len(f.bounds)+1)
		}
		f.series[label] = s
	}
	return s
}

// Set assigns the series value (gauges; also usable to install counter
// snapshots scraped from elsewhere).
func (f *Family) Set(label string, v float64) {
	f.reg.mu.Lock()
	f.at(label).value = v
	f.reg.mu.Unlock()
}

// Add increments the series value (counters, and gauges tracking depth).
func (f *Family) Add(label string, v float64) {
	f.reg.mu.Lock()
	f.at(label).value += v
	f.reg.mu.Unlock()
}

// Value reads the series value back (tests and progress reporting).
func (f *Family) Value(label string) float64 {
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	return f.at(label).value
}

// SetHistogram installs a histogram snapshot maintained elsewhere:
// per-bucket (non-cumulative) counts — the final entry being the +Inf
// bucket — plus the sum and total. counts must have len(bounds)+1
// entries.
func (f *Family) SetHistogram(label string, counts []uint64, sum float64, total uint64) {
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	s := f.at(label)
	copy(s.counts, counts)
	s.sum = sum
	s.total = total
}

// Write renders the full text exposition.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *Family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
		return err
	}
	labels := make([]string, 0, len(f.series))
	for l := range f.series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		s := f.series[l]
		if f.kind == histogramKind {
			if err := f.writeHistogram(w, l, s); err != nil {
				return err
			}
			continue
		}
		var err error
		if f.label == "" {
			_, err = fmt.Fprintf(w, "%s %g\n", f.name, s.value)
		} else {
			_, err = fmt.Fprintf(w, "%s{%s=%q} %g\n", f.name, f.label, l, s.value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *Family) writeHistogram(w io.Writer, label string, s *series) error {
	// Bucket lines carry the family label first, then le — the exact
	// layout the padd exposition always used.
	bucketPre := f.name + "_bucket{"
	labels := "" // suffix for the _sum/_count lines
	if f.label != "" {
		lv := fmt.Sprintf("%s=%q", f.label, label)
		bucketPre += lv + ","
		labels = "{" + lv + "}"
	}
	cum := uint64(0)
	for i, b := range f.bounds {
		cum += s.counts[i]
		if _, err := fmt.Fprintf(w, "%sle=%q} %d\n", bucketPre, fmt.Sprintf("%g", b), cum); err != nil {
			return err
		}
	}
	cum += s.counts[len(f.bounds)]
	if _, err := fmt.Fprintf(w, "%sle=\"+Inf\"} %d\n", bucketPre, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, labels, s.sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, s.total)
	return err
}
