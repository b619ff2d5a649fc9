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

// Validate reports a configuration error, if any, naming the field. The
// range checks are written in accept form, so a NaN field fails them.
func (c SynthConfig) Validate() error {
	c = c.withDefaults()
	if c.Machines < 0 {
		return fmt.Errorf("trace: negative Machines %d", c.Machines)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("trace: negative Horizon %v", c.Horizon)
	}
	if !(c.MeanUtilization > 0 && c.MeanUtilization < 1) {
		return fmt.Errorf("trace: MeanUtilization %v out of (0,1)", c.MeanUtilization)
	}
	if !(c.DiurnalSwing >= 0 && c.DiurnalSwing < 1) {
		return fmt.Errorf("trace: DiurnalSwing %v out of [0,1)", c.DiurnalSwing)
	}
	if !(c.WeekendDip >= 0 && c.WeekendDip < 1) {
		return fmt.Errorf("trace: WeekendDip %v out of [0,1)", c.WeekendDip)
	}
	if c.MeanTaskDuration <= 0 {
		return fmt.Errorf("trace: MeanTaskDuration %v must be positive", c.MeanTaskDuration)
	}
	if !(c.TasksPerJob > 0 && c.TasksPerJob <= math.MaxFloat64) {
		return fmt.Errorf("trace: TasksPerJob %v must be positive and finite", c.TasksPerJob)
	}
	if c.SurgePeriod < 0 || c.SurgeWidth < 0 {
		return fmt.Errorf("trace: negative SurgePeriod %v or SurgeWidth %v", c.SurgePeriod, c.SurgeWidth)
	}
	if !(c.SurgeBoost >= 0 && c.SurgeBoost <= 1) {
		return fmt.Errorf("trace: SurgeBoost %v out of [0,1]", c.SurgeBoost)
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

// slot is the arrival process's step: each one-minute slot draws a
// Poisson number of jobs.
const slot = time.Minute

// meanRate is the mean CPU rate per task: rates are drawn uniform in
// [0.05, 0.35].
const meanRate = 0.2

// slotJobs returns the expected number of jobs arriving in the slot that
// starts at t. By Little's law (concurrency = arrival rate × duration),
// it keeps the expected number of concurrently running tasks at
// envelope×machines/meanRate. c has its defaults applied.
func (c SynthConfig) slotJobs(t time.Duration) float64 {
	u := c.utilizationEnvelope(t)
	targetTasks := u * float64(c.Machines) / meanRate
	jobsPerSec := targetTasks / (c.MeanTaskDuration.Seconds() * c.TasksPerJob)
	return jobsPerSec * slot.Seconds()
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
	tr := &Trace{Machines: cfg.Machines}

	// Allocate the tasks once. The arrival process expects jobs×perJob
	// tasks, a job bringing 1 + Poisson(TasksPerJob-1); four standard
	// deviations of that compound-Poisson count (its variance is under
	// expected×(perJob+1)) cover the draw. A larger draw still fits, by
	// append.
	var jobs float64
	for t := time.Duration(0); t < cfg.Horizon; t += slot {
		jobs += max(cfg.slotJobs(t), 0)
	}
	perJob := max(cfg.TasksPerJob, 1)
	want := jobs * perJob
	want += 4 * math.Sqrt(want*(perJob+1))
	tr.Tasks = make([]Task, 0, int(want))

	cfg.draw(func(job []Task) { tr.Tasks = append(tr.Tasks, job...) })
	return tr, nil
}

// GenerateMachineSeries returns MachineSeries(Generate(cfg), step), bit
// for bit, without holding the trace: each job's tasks are binned as they
// are drawn, in the order Generate returns them, so every bin receives the
// same addends in the same order. It holds the series and one slot's
// tasks, where Generate holds every task.
func GenerateMachineSeries(cfg SynthConfig, step time.Duration) ([]*stats.Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// No task ends past the horizon, so these bins hold every task; the
	// series are trimmed to the latest end, MachineSeries' horizon.
	b, err := newBinner(cfg.Machines, step, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	cfg.draw(func(job []Task) {
		for _, t := range job {
			b.add(t)
		}
	})
	return b.finish(), nil
}

// draw runs the arrival process of c, which has its defaults applied, and
// hands emit every job's tasks, one job per call, in start order (ties in
// the order they were drawn). emit must not retain the slice: the next
// slot reuses it.
func (c SynthConfig) draw(emit func(job []Task)) {
	rng := stats.NewRNG(c.Seed)
	arrivalRNG := rng.Split(1)
	taskRNG := rng.Split(2)
	placeRNG := rng.Split(3)

	// Log-normal duration with sigma 1.0: mean = exp(mu + sigma²/2).
	const durSigma = 1.0
	durMu := math.Log(c.MeanTaskDuration.Seconds()) - durSigma*durSigma/2

	// A job's tasks share its start and are drawn together, so a stable
	// sort of a slot's jobs by start, expanded in order, is the stable
	// sort of its tasks.
	type drawnJob struct {
		start  time.Duration
		lo, hi int // the job's tasks, tasks[lo:hi]
	}
	var (
		tasks []Task
		jobs  []drawnJob
	)
	for t := time.Duration(0); t < c.Horizon; t += slot {
		tasks, jobs = tasks[:0], jobs[:0]
		n := arrivalRNG.Poisson(c.slotJobs(t))
		for j := 0; j < n; j++ {
			start := t + time.Duration(arrivalRNG.Float64()*float64(slot))
			lo := len(tasks)
			nTasks := 1 + taskRNG.Poisson(c.TasksPerJob-1)
			for k := 0; k < nTasks; k++ {
				dur := time.Duration(taskRNG.LogNormal(durMu, durSigma) * float64(time.Second))
				if dur < time.Second {
					dur = time.Second
				}
				end := start + dur
				if end > c.Horizon {
					end = c.Horizon
				}
				if end <= start {
					continue
				}
				tasks = append(tasks, Task{
					Start:   start,
					End:     end,
					Machine: placeRNG.Intn(c.Machines),
					CPURate: taskRNG.Range(0.05, 0.35),
				})
			}
			if len(tasks) > lo {
				jobs = append(jobs, drawnJob{start, lo, len(tasks)})
			}
		}
		// Every start drawn in this slot lies in [t, t+slot), so sorting
		// each slot as it closes (stably, as replay expects) puts the
		// whole trace in start order.
		slices.SortStableFunc(jobs, func(a, b drawnJob) int {
			return cmp.Compare(a.start, b.start)
		})
		for _, job := range jobs {
			emit(tasks[job.lo:job.hi])
		}
	}
}
