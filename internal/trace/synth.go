package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/stats"
)

// SynthConfig parameterizes the synthetic Google-style trace generator.
// Defaults reproduce the population the paper evaluates: 220 machines
// observed for a month at 5-minute resolution.
type SynthConfig struct {
	// Machines is the cluster size. 0 selects 220.
	Machines int
	// Horizon is the trace length. 0 selects 30 days.
	Horizon time.Duration
	// Seed drives all randomness; traces are deterministic per seed.
	Seed uint64
	// MeanUtilization is the target cluster-mean CPU utilization in
	// (0, 1). 0 selects 0.45, typical of the Google trace.
	MeanUtilization float64
	// DiurnalSwing is the peak-to-mean utilization swing of the daily
	// pattern, in [0, 1). 0 selects 0.35.
	DiurnalSwing float64
	// WeekendDip is the fractional utilization reduction on days 6 and 7
	// of each week. 0 selects 0.15.
	WeekendDip float64
	// MeanTaskDuration is the mean task run time. 0 selects 20 minutes
	// (durations are log-normal and heavy-tailed around this mean).
	MeanTaskDuration time.Duration
	// TasksPerJob is the mean number of tasks per arriving job. 0
	// selects 4.
	TasksPerJob float64
	// SurgePeriod, if non-zero, injects a cluster-wide utilization surge
	// of SurgeBoost every SurgePeriod lasting SurgeWidth — the periodic
	// data-center-wide load surge of Figure 14.
	SurgePeriod time.Duration
	// SurgeWidth is the surge duration; 0 with a period selects 1 hour.
	SurgeWidth time.Duration
	// SurgeBoost is the extra utilization added during surges, in [0, 1].
	// 0 with a period selects 0.35.
	SurgeBoost float64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Machines == 0 {
		c.Machines = 220
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * 24 * time.Hour
	}
	if c.MeanUtilization == 0 {
		c.MeanUtilization = 0.45
	}
	if c.DiurnalSwing == 0 {
		c.DiurnalSwing = 0.35
	}
	if c.WeekendDip == 0 {
		c.WeekendDip = 0.15
	}
	if c.MeanTaskDuration == 0 {
		c.MeanTaskDuration = 20 * time.Minute
	}
	if c.TasksPerJob == 0 {
		c.TasksPerJob = 4
	}
	if c.SurgePeriod > 0 {
		if c.SurgeWidth == 0 {
			c.SurgeWidth = time.Hour
		}
		if c.SurgeBoost == 0 {
			c.SurgeBoost = 0.35
		}
	}
	return c
}

// Validate reports a configuration error, if any.
func (c SynthConfig) Validate() error {
	c = c.withDefaults()
	if c.Machines < 0 {
		return fmt.Errorf("trace: negative machine count %d", c.Machines)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("trace: negative horizon %v", c.Horizon)
	}
	if c.MeanUtilization <= 0 || c.MeanUtilization >= 1 {
		return fmt.Errorf("trace: mean utilization %v out of (0,1)", c.MeanUtilization)
	}
	if c.DiurnalSwing < 0 || c.DiurnalSwing >= 1 {
		return fmt.Errorf("trace: diurnal swing %v out of [0,1)", c.DiurnalSwing)
	}
	if c.WeekendDip < 0 || c.WeekendDip >= 1 {
		return fmt.Errorf("trace: weekend dip %v out of [0,1)", c.WeekendDip)
	}
	if c.SurgeBoost < 0 || c.SurgeBoost > 1 {
		return fmt.Errorf("trace: surge boost %v out of [0,1]", c.SurgeBoost)
	}
	return nil
}

// utilizationEnvelope returns the target cluster utilization at offset t:
// the diurnal/weekly/surge pattern the arrival process tracks.
func (c SynthConfig) utilizationEnvelope(t time.Duration) float64 {
	day := t.Hours() / 24
	// Diurnal: peak mid-day, trough at night.
	phase := 2 * math.Pi * (day - math.Floor(day))
	u := c.MeanUtilization * (1 + c.DiurnalSwing*math.Sin(phase-math.Pi/2))
	// Weekly: days 6, 7 dip.
	dayOfWeek := int(math.Floor(day)) % 7
	if dayOfWeek >= 5 {
		u *= 1 - c.WeekendDip
	}
	// Optional periodic surge.
	if c.SurgePeriod > 0 {
		into := t % c.SurgePeriod
		if into < c.SurgeWidth {
			u += c.SurgeBoost
		}
	}
	if u < 0.02 {
		u = 0.02
	}
	if u > 0.98 {
		u = 0.98
	}
	return u
}

// Generate produces a synthetic trace from cfg, its tasks in start
// order (ties in the order they were drawn), the order replay consumes
// them in.
//
// The construction works backwards from utilization: job arrivals form a
// non-homogeneous Poisson process whose rate keeps the expected number of
// concurrently running tasks equal to envelope×machines×meanTasksPerMachine,
// so the replayed per-machine utilization tracks the envelope with natural
// Poisson burstiness on top.
func Generate(cfg SynthConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	arrivalRNG := rng.Split(1)
	taskRNG := rng.Split(2)
	placeRNG := rng.Split(3)

	tr := &Trace{Machines: cfg.Machines}

	// Mean CPU rate per task: drawn uniform in [0.05, 0.35], mean 0.2.
	const meanRate = 0.2
	// Little's law: concurrency = arrivalRate × duration. Target
	// concurrency (in tasks) at envelope u is u×machines/meanRate.
	meanDur := cfg.MeanTaskDuration.Seconds()
	// Log-normal duration with sigma 1.0: mean = exp(mu + sigma²/2).
	const durSigma = 1.0
	durMu := math.Log(meanDur) - durSigma*durSigma/2

	// Step through time in arrival slots (one minute) drawing a Poisson
	// number of jobs per slot; arrivals returns a slot's expected count.
	const slot = time.Minute
	arrivals := func(t time.Duration) float64 {
		u := cfg.utilizationEnvelope(t)
		targetTasks := u * float64(cfg.Machines) / meanRate
		jobsPerSec := targetTasks / (meanDur * cfg.TasksPerJob)
		return jobsPerSec * slot.Seconds()
	}

	// Allocate the tasks once. The arrival process expects jobs×perJob
	// tasks, a job bringing 1 + Poisson(TasksPerJob-1); four standard
	// deviations of that compound-Poisson count (its variance is under
	// expected×(perJob+1)) cover the draw. A larger draw still fits, by
	// append.
	var jobs float64
	for t := time.Duration(0); t < cfg.Horizon; t += slot {
		jobs += max(arrivals(t), 0)
	}
	perJob := max(cfg.TasksPerJob, 1)
	want := jobs * perJob
	want += 4 * math.Sqrt(want*(perJob+1))
	tr.Tasks = make([]Task, 0, int(want))

	for t := time.Duration(0); t < cfg.Horizon; t += slot {
		first := len(tr.Tasks)
		n := arrivalRNG.Poisson(arrivals(t))
		for j := 0; j < n; j++ {
			start := t + time.Duration(arrivalRNG.Float64()*float64(slot))
			nTasks := 1 + taskRNG.Poisson(cfg.TasksPerJob-1)
			for k := 0; k < nTasks; k++ {
				dur := time.Duration(taskRNG.LogNormal(durMu, durSigma) * float64(time.Second))
				if dur < time.Second {
					dur = time.Second
				}
				end := start + dur
				if end > cfg.Horizon {
					end = cfg.Horizon
				}
				if end <= start {
					continue
				}
				tr.Tasks = append(tr.Tasks, Task{
					Start:   start,
					End:     end,
					Machine: placeRNG.Intn(cfg.Machines),
					CPURate: taskRNG.Range(0.05, 0.35),
				})
			}
		}
		// Every start drawn in this slot lies in [t, t+slot), so sorting
		// each slot as it closes (stably, as replay expects) puts the
		// whole trace in start order.
		slices.SortStableFunc(tr.Tasks[first:], func(a, b Task) int {
			return cmp.Compare(a.Start, b.Start)
		})
	}
	return tr, nil
}
