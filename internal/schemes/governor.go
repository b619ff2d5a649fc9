package schemes

import (
	"math"
	"time"

	"repro/internal/fixedstep"
	"repro/internal/sim"
	"repro/internal/units"
)

// capGovernor models the software power-capping loop the paper faults for
// missing hidden spikes: it observes demand only through an EWMA smoother
// (utilization-based monitoring cannot see sub-second structure) and its
// frequency decisions take effect after an actuation delay (the paper
// cites 100–300 ms for full-system capping). Battery and μDEB responses
// are hardware-speed and bypass this governor entirely.
type capGovernor struct {
	smoothed []float64     // per-rack smoothed demand, watts
	obsOut   []units.Watts // reusable observe result, valid until next observe
	// The actuation delay line is a ring of depth+1 reusable slots: a
	// submit copies desired into the tail slot and returns the head slot
	// (or the shared zero slice while the line fills). Returned slices
	// are owned by the governor and valid until the slot cycles back
	// around, i.e. at least until the next submit.
	ring     [][]float64
	ringHead int
	ringLen  int
	zeros    []float64

	// Cached per-tick EWMA weight (fixed-timestep kernel layer): alpha
	// depends only on the constant tick, so it is derived once per run
	// instead of one math.Exp per observe.
	alphaKey fixedstep.Key
	alpha    float64
}

const (
	// monitorTau is the monitoring smoothing constant: utilization-based
	// power monitoring integrates over coarse windows (the paper cites
	// minutes), which is precisely why sudden load jumps and hidden
	// spikes beat software capping.
	monitorTau = 60 * time.Second
	// actuationDelay is the capping actuation latency.
	actuationDelay = 300 * time.Millisecond
)

// alphaFor returns 1-exp(-tick/monitorTau), recomputing only when the
// tick changed.
func (g *capGovernor) alphaFor(tick time.Duration) float64 {
	if !g.alphaKey.Hit(tick) {
		g.alpha = 1 - math.Exp(-tick.Seconds()/monitorTau.Seconds())
	}
	return g.alpha
}

// observe updates the smoothed demand estimates and returns them. The
// returned slice is owned by the governor and valid until the next
// observe call.
func (g *capGovernor) observe(view sim.ClusterView) []units.Watts {
	n := len(view.Racks)
	if g.smoothed == nil {
		g.smoothed = make([]float64, n)
		for i, v := range view.Racks {
			g.smoothed[i] = float64(v.Demand) // seed from first sight
		}
		g.obsOut = make([]units.Watts, n)
	}
	alpha := g.alphaFor(view.Tick)
	out := g.obsOut[:n]
	for i, v := range view.Racks {
		g.smoothed[i] += alpha * (float64(v.Demand) - g.smoothed[i])
		out[i] = units.Watts(g.smoothed[i])
	}
	return out
}

// submit enqueues this tick's desired frequencies and returns the
// frequencies that actually take effect now (decisions from
// actuationDelay ago; 0 entries mean uncapped). The returned slice is
// owned by the governor and valid until the next submit call.
func (g *capGovernor) submit(desired []float64, tick time.Duration) []float64 {
	depth := 0
	if tick > 0 {
		depth = int(actuationDelay / tick)
	}
	if len(g.ring) < depth+1 {
		// First call (or a tick change mid-run, which never happens inside
		// one simulation): grow the ring, preserving queue order.
		grown := make([][]float64, depth+1)
		for i := 0; i < g.ringLen; i++ {
			grown[i] = g.ring[(g.ringHead+i)%len(g.ring)]
		}
		g.ring = grown
		g.ringHead = 0
	}
	tail := (g.ringHead + g.ringLen) % len(g.ring)
	if g.ring[tail] == nil {
		g.ring[tail] = make([]float64, len(desired))
	}
	copy(g.ring[tail], desired)
	g.ringLen++
	if g.ringLen <= depth {
		if g.zeros == nil {
			g.zeros = make([]float64, len(desired))
		}
		return g.zeros // nothing actuated yet
	}
	head := g.ring[g.ringHead]
	g.ringHead = (g.ringHead + 1) % len(g.ring)
	g.ringLen--
	return head
}

// smoothedTotal sums the smoothed per-rack demands.
func smoothedTotal(sm []units.Watts) units.Watts {
	var t units.Watts
	for _, v := range sm {
		t += v
	}
	return t
}
