package padd

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metering"
	"repro/internal/obs"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/units"
)

// Enqueue errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is backpressure: the bounded ingest queue is full
	// and the caller must retry later (429).
	ErrQueueFull = errors.New("padd: telemetry queue full")
	// ErrStopping means the session is draining for shutdown (503).
	ErrStopping = errors.New("padd: session stopping")
)

// flatBatch is one accepted ingest unit: consecutive per-server
// utilization samples in one flat sample-major buffer (sample i's
// servers at u[i*servers : (i+1)*servers]). Flat storage is what lets
// the binary wire path land telemetry in a single pooled allocation per
// record, and the worker step straight through it without per-sample
// slice headers.
type flatBatch struct {
	u       []float64
	samples int
}

// flatPool recycles batch buffers between ingest and the session
// workers: at fleet rates the queue would otherwise churn one
// allocation per POST through the garbage collector.
var flatPool sync.Pool

// getFlat returns a buffer with len n, reusing a pooled one when its
// capacity suffices.
func getFlat(n int) []float64 {
	if p, _ := flatPool.Get().(*[]float64); p != nil {
		if u := *p; cap(u) >= n {
			return u[:n]
		}
	}
	return make([]float64, n)
}

// putFlat recycles a batch buffer after its samples are processed.
func putFlat(u []float64) {
	if cap(u) == 0 {
		return
	}
	u = u[:0]
	flatPool.Put(&u)
}

// Session scheduling states. A session is an actor: it owns engine
// state that exactly one goroutine may touch at a time, but it has no
// goroutine of its own — the manager's workers claim it through this
// state machine whenever it has work, so idle sessions cost memory, not
// scheduler load.
const (
	stateIdle      int32 = iota // no work pending, not queued
	stateScheduled              // in the manager's run queue
	stateRunning                // claimed by an executor
)

// maxSliceBatches bounds how many queued batches one scheduling slice
// processes before the session is requeued, so a firehosed session
// cannot monopolize a worker.
const maxSliceBatches = 8

// maxCoastDebt caps how many wall-clock coast ticks can accumulate
// while a session waits for a worker; beyond this the session is
// falling behind real time and extra debt is dropped, exactly as a
// time.Ticker drops missed ticks.
const maxCoastDebt = 64

// sessionMetrics is the cross-goroutine snapshot of a session's state,
// refreshed by the executing worker once per tick and copied out whole
// by scrapers.
type sessionMetrics struct {
	Ticks         int64
	Now           time.Duration
	Level         core.Level
	MeanSOC       float64
	MinSOC        float64
	MeanMicroSOC  float64
	TotalGrid     units.Watts
	ShedWatts     units.Watts
	BreakerMargin units.Watts
	ShedServers   int
	Tripped       bool
	Finished      bool
	Coasts        int64
	Discarded     int64
	Anomalies     int64

	// Filled in by metrics() from atomics / queue state.
	Accepted   int64
	Rejected   int64
	QueueDepth int
}

// Session is one online PDU control loop: a sim.Stepper plus a bounded
// telemetry queue, executed by the manager's workers. All engine
// state is confined to whichever executor holds the state machine's
// running slot; the outside world sees the mutex-guarded snapshot, the
// event log and the atomic ingest counters.
type Session struct {
	id     string
	cfg    SessionConfig
	scheme sim.Scheme
	st     *sim.Stepper
	mgr    *Manager

	// Bounded ingest queue: a ring of flatBatch slots guarded by qmu
	// that grows on demand up to cfg.QueueDepth, plus the pause/stop
	// flags that gate it.
	qmu      sync.Mutex
	queue    []flatBatch
	qhead    int
	qcount   int
	paused   bool
	stopping bool

	state    atomic.Int32
	coastDue atomic.Int32

	done       chan struct{}
	finishOnce sync.Once

	accepted atomic.Int64
	rejected atomic.Int64

	// events is the session's log: the engine's trace events plus the
	// daemon's coast, anomaly and finished, flushed from trace once per
	// tick.
	events *eventRing

	// series holds the observability rings (nil with DisableSeries);
	// created is the wall-clock birth time behind uptime_seconds, and
	// lastIngest the UnixNano of the newest accepted batch (0 before
	// the first), behind last_telemetry_age_seconds.
	series     *sessionSeries
	created    time.Time
	lastIngest atomic.Int64

	mu   sync.Mutex
	snap sessionMetrics

	// latency observes each tick's wall time; lock-free, so it lives
	// beside the snapshot rather than in it.
	latency histogram

	// Executor-confined state (touched only while holding stateRunning).
	trace     *obs.Tracer
	meter     *metering.Meter
	cusum     *metering.CUSUMDetector
	lastU     []float64
	finished  bool
	coasting  bool
	coasts    int64
	discarded int64
	anomalies int64

	// Executor-confined observability state: the session's current
	// position in the fleet rollup's buckets, the newest tick already
	// appended to the series rings, and the open CUSUM excursion (if
	// any) that detection/shed latencies are measured against.
	rlLevel    int
	rlMargin   int
	seriesTick int64
	excursion  bool
	onset      time.Duration
	shedSeen   bool
}

// newSession builds a session and registers it with the manager's
// coaster when it ticks on wall clock. cfg must already have defaults
// applied and be validated.
func newSession(id string, cfg SessionConfig, m *Manager) (*Session, error) {
	simCfg := sim.Config{
		Key:                   "padd/" + id,
		Racks:                 cfg.Racks,
		ServersPerRack:        cfg.ServersPerRack,
		Tick:                  cfg.Tick.Duration,
		Duration:              cfg.Horizon.Duration,
		OversubscriptionRatio: cfg.Oversubscription,
		OvershootTolerance:    cfg.Overshoot,
		Record:                cfg.Record,
		RecordStep:            cfg.RecordStep.Duration,
	}
	scheme, err := schemes.Deploy(&simCfg, cfg.Scheme, cfg.MicroFraction)
	if err != nil {
		return nil, err
	}
	events := newEventRing(cfg.EventLog)
	simCfg.Trace = obs.NewTracer(tickEvents(cfg), events)
	if cfg.Record {
		step := cfg.RecordStep.Duration
		if step == 0 {
			step = cfg.Tick.Duration
		}
		if points := cfg.Horizon.Duration / step; points > 2_000_000 {
			return nil, fmt.Errorf("padd: recording %d points; shorten horizon or raise record_step", points)
		}
	}
	st, err := sim.NewStepper(simCfg, scheme)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:      id,
		cfg:     cfg,
		scheme:  scheme,
		st:      st,
		mgr:     m,
		paused:  cfg.Paused,
		done:    make(chan struct{}),
		events:  events,
		trace:   simCfg.Trace,
		lastU:   make([]float64, st.TotalServers()),
		created: time.Now(),
		// seriesTick guards one series sample per engine tick; -1 admits
		// tick 0 (a discard-path publish must not desync the index→tick
		// mapping by appending without an advance).
		seriesTick: -1,
	}
	if !cfg.DisableSeries {
		s.series = newSessionSeries(st.Tick())
	}
	if cfg.MeterInterval.Duration > 0 {
		meter, err := metering.NewMeter(cfg.MeterInterval.Duration, 0, 1)
		if err != nil {
			return nil, err
		}
		s.meter = meter
		s.cusum = metering.NewCUSUMDetector(0)
	}
	s.snap.MinSOC = 1
	s.snap.MeanSOC = 1
	s.snap.MeanMicroSOC = -1
	s.latency.layout = latencyLayout
	// Register in the fleet rollup at the initial position (after the
	// last fallible step, so an aborted construction never leaks a
	// bucket); publish moves the counters as the engine changes state,
	// rollupLeave vacates them on delete.
	s.rlMargin = marginBucket(0)
	m.rollup.join(s.rlLevel, s.rlMargin)
	// An empty flush gives the log its header (scheme, tick, shape)
	// before the first tick.
	s.flushEvents()
	if cfg.WallClock {
		m.addWallClock(s)
	}
	return s, nil
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Config returns the session's (defaulted) configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// doneClosed reports whether the session has fully stopped.
func (s *Session) doneClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Enqueue validates a batch of per-server utilization samples and
// offers it to the bounded ingest queue without blocking. Non-finite
// values are rejected outright; finite values are clamped to [0, 1] as
// they are copied (the caller's slices are not modified). A full queue
// returns ErrQueueFull — the 429 signal — and a stopping session
// returns ErrStopping.
func (s *Session) Enqueue(samples [][]float64) error {
	want := s.st.TotalServers()
	flat := getFlat(len(samples) * want)
	for i, u := range samples {
		if len(u) != want {
			putFlat(flat)
			return fmt.Errorf("padd: sample %d has %d entries for %d servers", i, len(u), want)
		}
		row := flat[i*want : (i+1)*want]
		for j, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				putFlat(flat)
				return fmt.Errorf("padd: sample %d server %d: non-finite utilization", i, j)
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			row[j] = v
		}
	}
	if err := s.EnqueueFlat(flat, len(samples)); err != nil {
		putFlat(flat)
		return err
	}
	return nil
}

// EnqueueFlat offers an already-validated flat sample-major batch to
// the bounded queue, taking ownership of u on success (it is recycled
// through the batch pool once processed). The binary wire path lands
// here: wire.Record.FloatsInto has applied the same finite/clamp rules
// Enqueue applies, so the two ingest formats feed the engine
// identically.
func (s *Session) EnqueueFlat(u []float64, samples int) error {
	if samples <= 0 || len(u) != samples*s.st.TotalServers() {
		return fmt.Errorf("padd: flat batch of %d values is not %d samples × %d servers",
			len(u), samples, s.st.TotalServers())
	}
	s.qmu.Lock()
	if s.stopping {
		s.qmu.Unlock()
		return ErrStopping
	}
	if s.qcount == len(s.queue) {
		if len(s.queue) == s.cfg.QueueDepth {
			s.qmu.Unlock()
			s.rejected.Add(1)
			return ErrQueueFull
		}
		s.growQueue()
	}
	s.queue[(s.qhead+s.qcount)%len(s.queue)] = flatBatch{u: u, samples: samples}
	s.qcount++
	paused := s.paused
	s.qmu.Unlock()
	s.accepted.Add(int64(samples))
	s.mgr.batchSizes.observe(int64(samples))
	s.lastIngest.Store(time.Now().UnixNano())
	// A paused session holds its queue, so waking a worker would only
	// no-op; Resume schedules when the pause lifts. (No lost wakeup: a
	// concurrent Resume that cleared the flag before we read it
	// schedules on its own.)
	if !paused {
		s.schedule()
	}
	return nil
}

// growQueue doubles the full ingest queue's slots, up to QueueDepth,
// keeping the queued batches in FIFO order from slot 0. Called with qmu
// held.
func (s *Session) growQueue() {
	q := make([]flatBatch, min(max(2, 2*len(s.queue)), s.cfg.QueueDepth))
	n := copy(q, s.queue[s.qhead:])
	copy(q[n:], s.queue[:s.qhead])
	s.queue, s.qhead = q, 0
}

// queueLen reports the current ingest queue depth.
func (s *Session) queueLen() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.qcount
}

// pop takes the oldest queued batch. Paused sessions hold their queue
// until Resume — unless they are stopping, when the lossless-drain
// invariant wins over the pause.
func (s *Session) pop() (flatBatch, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qcount == 0 || (s.paused && !s.stopping) {
		return flatBatch{}, false
	}
	b := s.queue[s.qhead]
	s.queue[s.qhead] = flatBatch{}
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qcount--
	return b, true
}

// schedule queues the session onto the manager's run queue if it is not
// already queued or running. The idle→scheduled CAS guarantees at most
// one outstanding run-queue entry per session.
func (s *Session) schedule() {
	if s.state.CompareAndSwap(stateIdle, stateScheduled) {
		s.mgr.submit(s)
	}
}

// coastTick records one wall-clock tick owed by a late session (called
// by the coaster). Debt beyond maxCoastDebt is dropped, like a
// ticker dropping missed ticks.
func (s *Session) coastTick() {
	if s.coastDue.Load() < maxCoastDebt {
		s.coastDue.Add(1)
	}
	s.schedule()
}

// runOnce is one worker execution: claim the session, run a bounded
// slice of its work, then requeue it if work remains. The
// scheduled→running CAS makes stale run-queue entries harmless — if
// Stop's inline drain claimed the session first, this is a no-op.
func (s *Session) runOnce() {
	if !s.state.CompareAndSwap(stateScheduled, stateRunning) {
		return
	}
	s.runSlice()
	s.state.Store(stateIdle)
	if s.pendingWork() {
		s.schedule()
	}
}

// runSlice does up to maxSliceBatches of queued telemetry, or the
// accumulated coast debt when there is none, then finalizes the session
// if it is stopping with an empty queue. Called only while holding the
// running slot.
func (s *Session) runSlice() {
	if s.doneClosed() {
		return
	}
	coasts := s.coastDue.Swap(0)
	processed := 0
	for processed < maxSliceBatches {
		b, ok := s.pop()
		if !ok {
			break
		}
		s.processFlat(b)
		processed++
	}
	if processed == 0 && coasts > 0 {
		// Telemetry waiting takes priority over coasting; a tick that
		// found telemetry forgets its coast, like the ticker path did.
		s.qmu.Lock()
		skip := s.paused || s.stopping
		s.qmu.Unlock()
		if !skip {
			for i := int32(0); i < coasts; i++ {
				s.coast()
			}
		}
	}
	s.qmu.Lock()
	finalize := s.stopping && s.qcount == 0
	s.qmu.Unlock()
	if finalize {
		s.finishOnce.Do(func() {
			// An excursion still open at drain time must release the
			// under-attack gauge; no more ticks will resolve it.
			s.closeExcursion()
			s.trace.Close() //nolint:errcheck // the log's Close cannot fail
			close(s.done)
		})
	}
}

// pendingWork reports whether the session still needs an executor.
func (s *Session) pendingWork() bool {
	if s.doneClosed() {
		return false
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.stopping {
		return true // drain and finalize
	}
	if s.paused {
		return false
	}
	return s.qcount > 0 || s.coastDue.Load() > 0
}

// Pause holds the session's ingest queue: queued and newly accepted
// batches sit (degrading to backpressure once the queue fills) until
// Resume. The counterpart of Resume, for quiescing a session without
// losing its queue; a batch already claimed by a worker finishes
// its ticks first. Idempotent.
func (s *Session) Pause() {
	s.qmu.Lock()
	s.paused = true
	s.qmu.Unlock()
}

// Resume releases a session created with Paused (or paused since).
// Idempotent; a no-op for sessions that were never paused.
func (s *Session) Resume() {
	s.qmu.Lock()
	was := s.paused
	s.paused = false
	s.qmu.Unlock()
	if was && s.cfg.WallClock {
		s.mgr.resetWallClock(s)
	}
	s.schedule()
}

// beginStop flags the session for draining and makes sure an executor
// will get to it, without waiting.
func (s *Session) beginStop() {
	s.qmu.Lock()
	s.stopping = true
	s.qmu.Unlock()
	s.schedule()
}

// Stop drains the queued telemetry, finalizes the session and waits
// for it. Idempotent; safe to call concurrently. Normally a worker
// performs the drain; if it does not claim the session (it is
// saturated or already torn down), Stop claims the actor itself and
// drains inline, so Stop never depends on worker liveness.
func (s *Session) Stop() {
	s.beginStop()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if s.state.CompareAndSwap(stateScheduled, stateRunning) ||
				s.state.CompareAndSwap(stateIdle, stateRunning) {
				for !s.doneClosed() {
					s.runSlice()
				}
				s.state.Store(stateIdle)
				return
			}
		}
	}
}

// Result finalizes and returns the run result so far. It must only be
// called after Stop — the stepper is executor-confined while the
// session runs.
func (s *Session) Result() *sim.Result {
	if !s.doneClosed() {
		panic("padd: Session.Result before Stop")
	}
	return s.st.Result()
}

// Events returns the event log's header, its retained events at tick
// since or later in emission order, and how many events the log has
// lost (overwritten once it held EventLog, or dropped by the tracer).
// A tick's events are logged together, so a poller that resumes at its
// last event's tick + 1 misses nothing the log still holds.
func (s *Session) Events(since int64) (obs.Meta, []obs.Event, uint64) {
	return s.events.list(since)
}

// metrics copies out the cross-goroutine snapshot.
func (s *Session) metrics() sessionMetrics {
	s.mu.Lock()
	sm := s.snap
	s.mu.Unlock()
	sm.Accepted = s.accepted.Load()
	sm.Rejected = s.rejected.Load()
	s.qmu.Lock()
	sm.QueueDepth = s.qcount
	s.qmu.Unlock()
	return sm
}

// processFlat steps the engine through one batch, then recycles its
// buffer.
func (s *Session) processFlat(b flatBatch) {
	servers := s.st.TotalServers()
	for i := 0; i < b.samples; i++ {
		if s.st.Done() {
			s.discarded += int64(b.samples - i)
			s.publish(s.st.Stats(), 0)
			break
		}
		u := b.u[i*servers : (i+1)*servers]
		copy(s.lastU, u)
		s.coasting = false
		s.step(u)
	}
	putFlat(b.u)
}

// coast advances one tick on the last known demand (idle until the
// first telemetry arrives). Only the first coast of a gap is logged.
func (s *Session) coast() {
	if s.st.Done() {
		return
	}
	if !s.coasting {
		s.trace.Emit(obs.Event{Tick: int64(s.st.Ticks()), Rack: -1, Kind: obs.KindCoast})
		s.coasting = true
	}
	s.coasts++
	s.step(s.lastU)
}

// step advances the engine one tick, runs the metering, logs the tick's
// events and refreshes the published snapshot. The engine emits its
// level, shed, trip and breaker events into the session's tracer; the
// daemon adds its own beside them.
func (s *Session) step(u []float64) {
	start := time.Now()
	err := s.st.Advance(u)
	elapsed := time.Since(start)
	if err != nil {
		// Unreachable through the validated ingest path; surface it
		// rather than hide it.
		s.trace.Emit(obs.Event{Tick: int64(s.st.Ticks()), Rack: -1, Kind: obs.KindFinished})
		s.flushEvents()
		return
	}
	ts := s.st.Stats()
	tick := int64(ts.Ticks - 1) // the tick just advanced
	if s.meter != nil {
		for _, r := range s.meter.Record(ts.TotalGrid, s.st.Tick()) {
			flagged := s.cusum.Observe(r)
			// An excursion opens the first interval the CUSUM statistic
			// leaves zero (or flags outright) — the earliest
			// online-observable onset — anchored at the interval's start.
			// Detection latency runs onset→flag; the excursion closes on
			// the flag (the statistic resets) or when it decays to zero.
			if !s.excursion && (flagged || s.cusum.Sum() > 0) {
				s.excursion = true
				s.shedSeen = false
				s.onset = r.Start
				s.mgr.det.onsets.Add(1)
				s.mgr.rollup.underAttack.Add(1)
			}
			if flagged {
				s.anomalies++
				s.trace.Emit(obs.Event{
					Tick: tick, Rack: -1, Kind: obs.KindAnomaly,
					A: float64(r.Avg), B: float64(s.cusum.Baseline()),
				})
				s.mgr.det.detect.observe(int64(s.st.Now() - s.onset))
				s.closeExcursion()
			} else if s.excursion && s.cusum.Sum() == 0 {
				s.closeExcursion() // decayed without crossing the decision level
			}
		}
	}
	// Shed latency runs onset→first tick shedding is engaged while the
	// excursion is open; a shed already holding when the onset opened
	// counts on the next tick, which is the first the correlation is
	// observable.
	if s.excursion && !s.shedSeen && ts.ShedServers > 0 {
		s.shedSeen = true
		s.mgr.det.shed.observe(int64(s.st.Now() - s.onset))
	}
	if s.st.Done() && !s.finished {
		s.finished = true
		s.trace.Emit(obs.Event{Tick: tick, Rack: -1, Kind: obs.KindFinished})
	}
	s.flushEvents()
	s.publish(ts, elapsed)
}

// tickEvents bounds the events one tick can log, which sizes the
// session's tracer to a single tick so that it never drops. By a read
// of Stepper.Advance, the engine emits at most five per rack (overload,
// μDEB shave, trip, heat, margin) and six more (the PDU's trip, heat
// and margin; level, shed and vDEB refresh). The daemon adds at most
// one coast, one finished and one anomaly per meter reading the tick
// closes: tick/meter_interval, plus one for an interval already under
// way. Were the bound ever short, the tracer's drop count would reach
// the log's footer when the session stops and closes its tracer.
func tickEvents(cfg SessionConfig) int {
	n := 5*cfg.Racks + 6 + 2
	if m := cfg.MeterInterval.Duration; m > 0 {
		n += int(cfg.Tick.Duration/m) + 1
	}
	return n
}

// flushEvents hands the tick's events to the log in one write, under a
// header that counts the ticks advanced so far.
func (s *Session) flushEvents() {
	m := s.trace.Meta()
	m.Ticks = int64(s.st.Ticks())
	s.trace.SetMeta(m)
	s.trace.Flush() //nolint:errcheck // the log's Write cannot fail
}

// closeExcursion resolves the open CUSUM excursion (flagged or
// decayed) and releases the under-attack gauge. Executor-confined.
func (s *Session) closeExcursion() {
	if s.excursion {
		s.excursion = false
		s.mgr.rollup.underAttack.Add(-1)
	}
}

// rollupLeave vacates the session's fleet-rollup buckets. Called by the
// manager after Stop has drained the session — the done channel is the
// happens-before edge that makes reading the executor-confined bucket
// positions safe.
func (s *Session) rollupLeave() {
	r := &s.mgr.rollup
	r.levels[s.rlLevel].Add(-1)
	r.margin[s.rlMargin].Add(-1)
}

// publish refreshes the cross-goroutine snapshot from the engine's
// stats ts, appends the tick to the observability rings, moves the
// session's fleet-rollup buckets and observes the tick's wall time.
// Zero allocations in steady state: the snapshot is copied in place and
// the rings were sized at creation.
func (s *Session) publish(ts sim.TickStats, elapsed time.Duration) {
	if s.series != nil && int64(ts.Ticks) != s.seriesTick {
		// One sample per engine tick, so bucket index maps to sim time
		// (index × step × tick); the discard path republishes without
		// advancing and must not skew that mapping.
		s.seriesTick = int64(ts.Ticks)
		s.series.soc.Append(ts.MeanSOC)
		s.series.level.Append(float64(ts.Level))
		s.series.shed.Append(float64(ts.ShedWatts))
		s.series.margin.Append(float64(ts.BreakerMargin))
		s.series.queue.Append(float64(s.queueLen()))
	}
	if lvl := int(ts.Level); lvl != s.rlLevel {
		r := &s.mgr.rollup
		r.levels[s.rlLevel].Add(-1)
		r.levels[lvl].Add(1)
		s.rlLevel = lvl
	}
	if mb := marginBucket(float64(ts.BreakerMargin)); mb != s.rlMargin {
		r := &s.mgr.rollup
		r.margin[s.rlMargin].Add(-1)
		r.margin[mb].Add(1)
		s.rlMargin = mb
	}
	s.mu.Lock()
	s.snap.Ticks = int64(ts.Ticks)
	s.snap.Now = ts.Now
	s.snap.Level = ts.Level
	s.snap.MeanSOC = ts.MeanSOC
	s.snap.MinSOC = ts.MinSOC
	s.snap.MeanMicroSOC = ts.MeanMicroSOC
	s.snap.TotalGrid = ts.TotalGrid
	s.snap.ShedWatts = ts.ShedWatts
	s.snap.BreakerMargin = ts.BreakerMargin
	s.snap.ShedServers = ts.ShedServers
	s.snap.Tripped = ts.Tripped
	s.snap.Finished = s.finished
	s.snap.Coasts = s.coasts
	s.snap.Discarded = s.discarded
	s.snap.Anomalies = s.anomalies
	s.mu.Unlock()
	if elapsed > 0 {
		s.latency.observe(int64(elapsed))
	}
}
