package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
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

// flushAt is the buffered exposition size at which Write hands the
// text to its writer.
const flushAt = 64 << 10

// expo renders exposition text into one reused buffer with strconv
// appends, flushing it to w whenever a series leaves it at flushAt
// bytes or more.
type expo struct {
	w    io.Writer
	buf  []byte
	pair []byte // the current series' label set, `{label="value"}`, or empty
	pre  []byte // the current histogram series' bucket-line prefix
	err  error
}

// flush hands the buffered text to w and empties the buffer; after a
// failed write it only empties it.
func (e *expo) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// sample appends one `name<suffix><labels> ` line head.
func (e *expo) sample(name, suffix string) {
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, suffix...)
	e.buf = append(e.buf, e.pair...)
	e.buf = append(e.buf, ' ')
}

// Write renders the full text exposition.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &expo{w: w, buf: make([]byte, 0, flushAt+flushAt/8)}
	for _, f := range r.families {
		f.write(e)
		if e.err != nil {
			return e.err
		}
	}
	e.flush()
	return e.err
}

func (f *Family) write(e *expo) {
	e.buf = append(e.buf, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.kind.String()+"\n"...)
	labels := make([]string, 0, len(f.series))
	for l := range f.series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var les []string
	if f.kind == histogramKind {
		les = f.leLabels()
	}
	for _, l := range labels {
		s := f.series[l]
		e.pair = e.pair[:0]
		if f.label != "" {
			e.pair = append(e.pair, '{')
			e.pair = append(e.pair, f.label...)
			e.pair = append(e.pair, '=')
			e.pair = strconv.AppendQuote(e.pair, l)
			e.pair = append(e.pair, '}')
		}
		if f.kind == histogramKind {
			f.writeHistogram(e, les, s)
		} else {
			e.sample(f.name, "")
			e.buf = strconv.AppendFloat(e.buf, s.value, 'g', -1, 64)
			e.buf = append(e.buf, '\n')
		}
		if len(e.buf) >= flushAt {
			e.flush()
		}
	}
}

// leLabels formats the family's bucket bounds as bucket-line tails,
// `le="0.1"} `, ending with the +Inf bucket's.
func (f *Family) leLabels() []string {
	les := make([]string, 0, len(f.bounds)+1)
	for _, b := range f.bounds {
		les = append(les, "le="+strconv.Quote(strconv.FormatFloat(b, 'g', -1, 64))+"} ")
	}
	return append(les, `le="+Inf"} `)
}

func (f *Family) writeHistogram(e *expo, les []string, s *series) {
	// Bucket lines carry the family label first, then le — the exact
	// layout the padd exposition always used.
	e.pre = append(e.pre[:0], f.name...)
	e.pre = append(e.pre, "_bucket{"...)
	if len(e.pair) > 0 {
		e.pre = append(e.pre, e.pair[1:len(e.pair)-1]...)
		e.pre = append(e.pre, ',')
	}
	cum := uint64(0)
	for i, le := range les {
		cum += s.counts[i]
		e.buf = append(e.buf, e.pre...)
		e.buf = append(e.buf, le...)
		e.buf = strconv.AppendUint(e.buf, cum, 10)
		e.buf = append(e.buf, '\n')
	}
	e.sample(f.name, "_sum")
	e.buf = strconv.AppendFloat(e.buf, s.sum, 'g', -1, 64)
	e.buf = append(e.buf, '\n')
	e.sample(f.name, "_count")
	e.buf = strconv.AppendUint(e.buf, s.total, 10)
	e.buf = append(e.buf, '\n')
}
