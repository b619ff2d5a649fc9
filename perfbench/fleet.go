package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/padd"
	"repro/internal/padd/wire"
)

// fleetShape sizes the fleet workload.
type fleetShape struct {
	sessions  int           // PDU sessions, 2 racks × 4 servers each
	jsonEvery int           // every jsonEvery-th session posts JSON; the rest stream
	attackPct int           // share of sessions replaying attack-shaped load, percent
	slots     int           // due slots per tick; each slot is one stream frame
	readEvery time.Duration // operator read cadence
	setups    int           // set-up repetitions
}

const (
	fleetTick    = 100 * time.Millisecond
	fleetRacks   = 2
	fleetSPR     = 4
	fleetServers = fleetRacks * fleetSPR
	// maxLag bounds the generator's p99 lateness; past it the run is
	// invalid because the offered load no longer follows the schedule.
	maxLag = 50 * time.Millisecond
	// spinSlack is how long before a due time the generator stops
	// sleeping and spins, so timer wake-up latency does not land in every
	// sample's latency. The runtime's timed waits round to whole
	// milliseconds when the process is idle; a longer spin would cut the
	// remaining lag but burn a core share that cpu_ms_per_work counts.
	spinSlack = 300 * time.Microsecond
	// probesPerSlot is how many stream sessions per slot have their
	// decisions timed.
	probesPerSlot = 2
	// opWindow is the piece of the measured window that counts as one
	// operation for the rate and CPU-cost medians.
	opWindow = 5 * time.Second
	// warmTicks is how many ticks every session decides during set-up.
	warmTicks = 2
)

var fullFleet = fleetShape{sessions: 2000, jsonEvery: 32, attackPct: 10, slots: 20, readEvery: time.Second, setups: 3}

var smokeFleet = fleetShape{sessions: 64, jsonEvery: 8, attackPct: 25, slots: 4, readEvery: 200 * time.Millisecond, setups: 2}

// fleetRig is one live daemon with its sessions and the collectors'
// connections: one persistent stream and one keep-alive HTTP connection
// for the JSON posts. Operator reads go through the daemon's HTTP handler
// in-process, so the load uses two connections and two goroutines in
// total and a slow read never holds up a collector's connection.
type fleetRig struct {
	shape  fleetShape
	seed   uint64
	mgr    *padd.Manager
	hs     *http.Server
	api    http.Handler
	served chan struct{}
	base   string
	client *http.Client
	stream *padd.StreamClient

	ids      []string
	sessions []*padd.Session
	attack   []bool
	streamIn [][]int // per slot: stream session indexes
	jsonIn   [][]int // per slot: JSON session indexes
	probes   [][]int // per slot: the probe sessions (stream sessions)
	acked    []int64 // per session: samples the daemon acknowledged
	sent     int     // ticks sent to every session so far
}

func newFleetRig(shape fleetShape, seed uint64) (*fleetRig, error) {
	r := &fleetRig{shape: shape, seed: seed}
	r.mgr = padd.NewManagerWith(padd.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.api = padd.NewServer(r.mgr)
	r.hs = &http.Server{Handler: r.api, ReadHeaderTimeout: 10 * time.Second}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		r.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	r.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

	n := shape.sessions
	r.ids = make([]string, n)
	r.sessions = make([]*padd.Session, n)
	r.attack = make([]bool, n)
	r.acked = make([]int64, n)
	r.streamIn = make([][]int, shape.slots)
	r.jsonIn = make([][]int, shape.slots)
	r.probes = make([][]int, shape.slots)
	for i := 0; i < n; i++ {
		r.ids[i] = fmt.Sprintf("f-%05d", i)
		r.attack[i] = int(mix(seed, uint64(i), 0, 0)%100) < shape.attackPct
		slot := i % shape.slots
		if (i/shape.slots)%shape.jsonEvery == shape.jsonEvery-1 {
			r.jsonIn[slot] = append(r.jsonIn[slot], i)
			continue
		}
		if len(r.probes[slot]) < probesPerSlot {
			r.probes[slot] = append(r.probes[slot], i)
		}
		r.streamIn[slot] = append(r.streamIn[slot], i)
	}
	for i, id := range r.ids {
		cfg := padd.SessionConfig{
			ID: id, Scheme: "PAD", Racks: fleetRacks, ServersPerRack: fleetSPR,
			DisableSeries: !r.isProbe(i),
		}
		body, err := json.Marshal(cfg)
		if err != nil {
			return r, err
		}
		code, _, err := r.do(http.MethodPost, "/v1/sessions", body)
		if err != nil {
			return r, err
		}
		if code != http.StatusCreated {
			return r, fmt.Errorf("create %s: HTTP %d", id, code)
		}
		if r.sessions[i], err = r.mgr.Get(id); err != nil {
			return r, err
		}
	}
	if r.stream, err = padd.DialStream(r.base); err != nil {
		return r, err
	}
	return r, nil
}

func (r *fleetRig) isProbe(i int) bool {
	for _, p := range r.probes[i%r.shape.slots] {
		if p == i {
			return true
		}
	}
	return false
}

// close hangs up and shuts the daemon down, waiting for its goroutines.
func (r *fleetRig) close() error {
	if r.stream != nil {
		r.stream.Close()
	}
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.served
	return errors.Join(err, r.mgr.Shutdown(ctx))
}

// do sends one request on the keep-alive connection and drains the body.
func (r *fleetRig) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// mix is a splitmix64-style hash of the inputs, the benchmark's source
// of seeded variation.
func mix(seed, a, b, c uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 ^ a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB ^ c*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fill writes session i's utilization for tick k. Normal sessions wander
// around a per-session base load; attack sessions add phase-locked
// full-power spikes (3 s of every 6 s) on one rack's servers, the shape
// that drains batteries and walks the security level up.
func (r *fleetRig) fill(dst []float64, i, k int) {
	base := 0.25 + 0.25*float64(mix(r.seed, uint64(i), 1, 0)%1000)/1000
	phase := float64(mix(r.seed, uint64(i), 2, 0)%628) / 100
	for s := range dst {
		noise := float64(mix(r.seed, uint64(i), uint64(k), uint64(s)+3)%1000)/1000*0.1 - 0.05
		u := base + 0.1*math.Sin(phase+float64(k)/50) + noise
		if r.attack[i] && s < fleetSPR && k%60 < 30 {
			u = 1
		}
		dst[s] = math.Max(0, math.Min(1, u))
	}
}

// collector tallies one load goroutine's observations; each goroutine
// owns one, merged after both finish.
type collector struct {
	attempted, failed int64
	lagMS             []float64
	errs              []error

	// stream goroutine
	decideMS, ackDueMS, ackRTTUS, ackToDecideMS []float64
	tracedDecideMS, untracedDecideMS            []float64
	encodeUS                                    []float64

	postMS []float64

	// read goroutine
	readMS, fleetMS, metricsMS   []float64
	seriesMS                     []float64
	queueMax                     float64
	tickSum0, tickCnt0, tickSum1 float64
	tickCnt1                     float64
	tickScraped                  bool
}

func (c *collector) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err)
	}
}

// pending is a probe sample waiting for its session to decide it.
type pending struct {
	sess        *padd.Session
	target      int64
	due, acked  time.Time
	traced      bool
	span, trace int
}

// sendStreamSlot encodes one sample for every stream session in slot at
// tick k, sends the frame and waits for its ack.
func (r *fleetRig) sendStreamSlot(c *collector, enc *wire.Encoder, flat []float64, slot, k int) (time.Time, time.Time, error) {
	t0 := time.Now()
	enc.Reset()
	for _, i := range r.streamIn[slot] {
		r.fill(flat, i, k)
		if err := enc.AppendFlat(r.ids[i], 1, fleetServers, flat); err != nil {
			return t0, t0, err
		}
	}
	sendAt := time.Now()
	c.encodeUS = append(c.encodeUS, float64(sendAt.Sub(t0))/float64(time.Microsecond))
	if _, err := r.stream.Send(enc.Frame()); err != nil {
		return sendAt, sendAt, err
	}
	var a wire.Ack
	if err := r.stream.ReadAck(&a); err != nil {
		return sendAt, sendAt, err
	}
	ackAt := time.Now()
	c.attempted++
	var rejected map[string]bool
	if a.Status != wire.AckOK || len(a.Rejects) > 0 {
		c.fail(fmt.Errorf("stream frame: ack %s, %d rejects", wire.AckStatusName(a.Status), len(a.Rejects)))
		rejected = map[string]bool{}
		for _, rej := range a.Rejects {
			rejected[string(rej.ID)] = true
		}
	}
	for _, i := range r.streamIn[slot] {
		if !rejected[r.ids[i]] {
			r.acked[i]++
		}
	}
	return sendAt, ackAt, nil
}

// postJSONSlot posts one sample to every JSON session in slot at tick k,
// calling between (the probe poll) before each post.
func (r *fleetRig) postJSONSlot(c *collector, flat []float64, slot, k int, between func()) {
	for _, i := range r.jsonIn[slot] {
		if between != nil {
			between()
		}
		r.fill(flat, i, k)
		body, err := json.Marshal(padd.TelemetryRequest{Samples: []padd.TelemetrySample{{U: flat}}})
		if err != nil {
			c.fail(err)
			continue
		}
		t0 := time.Now()
		code, _, err := r.do(http.MethodPost, "/v1/sessions/"+r.ids[i]+"/telemetry", body)
		c.postMS = append(c.postMS, float64(time.Since(t0))/float64(time.Millisecond))
		c.attempted++
		switch {
		case err != nil:
			c.fail(err)
		case code != http.StatusAccepted:
			c.fail(fmt.Errorf("telemetry %s: HTTP %d", r.ids[i], code))
		default:
			r.acked[i]++
		}
	}
}

// warmUp sends the set-up ticks to every session and waits until all of
// them are decided.
func (r *fleetRig) warmUp() error {
	var c collector
	var enc wire.Encoder
	flat := make([]float64, fleetServers)
	for k := 0; k < warmTicks; k++ {
		for slot := 0; slot < r.shape.slots; slot++ {
			if _, _, err := r.sendStreamSlot(&c, &enc, flat, slot, k); err != nil {
				return err
			}
			r.postJSONSlot(&c, flat, slot, k, nil)
		}
	}
	r.sent = warmTicks
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %v", c.errs[0])
	}
	return r.awaitDecided(10 * time.Second)
}

// awaitDecided waits until every session has decided every sample it
// accepted.
func (r *fleetRig) awaitDecided(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, s := range r.sessions {
		for {
			st := s.Status()
			if st.QueueDepth == 0 && st.Ticks == st.Accepted+st.Coasts-st.Discarded {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("session %s not drained: %d ticks, %d accepted, %d queued", st.ID, st.Ticks, st.Accepted, st.QueueDepth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// runFleet drives a live daemon open loop: every session is due one
// sample per 100 ms tick on a fixed schedule, stream sessions in frames
// per due slot, a minority as JSON POSTs, with operator reads beside
// them. Every latency counts from the sample's due time. The result is
// the decision: a probe session's published Status().Ticks covering the
// sample.
func runFleet(b *bench) error {
	shape := fullFleet
	if b.smoke {
		shape = smokeFleet
	}
	var rig *fleetRig
	err := b.repeatSetup(shape.setups, func() error {
		var err error
		rig, err = newFleetRig(shape, b.seed)
		if err == nil {
			err = rig.warmUp()
		}
		if err != nil && rig != nil {
			err = errors.Join(err, rig.close())
		}
		return err
	}, func() error {
		err := rig.close()
		// Return the torn-down fleet's memory before the next set-up so
		// peak RSS measures one fleet, not two.
		runtime.GC()
		debug.FreeOSMemory()
		return err
	})
	if err != nil {
		return err
	}
	defer rig.close()
	// Every run starts the window from the same heap state, so whether a
	// collection of the fleet's few hundred MB falls inside it is not
	// left to chance.
	runtime.GC()

	start := time.Now()
	end := start.Add(b.seconds)
	traceFrom := end // untraced unless tracing, then the first third is the reference
	if b.trace {
		traceFrom = start.Add(b.seconds / 3)
	}
	cpu0, _ := selfRusage()
	gc0 := gcStats()
	var heap *heapSampler
	if b.trace {
		heap = startHeapSampler(20 * time.Millisecond)
		defer heap.stopOnce()
	}

	var writes, reads collector
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rig.driveWrites(b, &writes, start, end, traceFrom)
	}()
	go func() {
		defer wg.Done()
		rig.driveReads(b, &reads, start, end, traceFrom)
	}()
	// Cut the window into opWindow pieces, each one operation for the
	// rate and CPU-cost medians.
	last, lastCPU, lastTicks := start, cpu0, rig.decided()
	mark := func() {
		now, ticks := time.Now(), rig.decided()
		cpu, _ := selfRusage()
		if ticks > lastTicks {
			b.op(float64(ticks-lastTicks), now.Sub(last), cpu-lastCPU, 1)
		}
		last, lastCPU, lastTicks = now, cpu, ticks
	}
	piece := min(opWindow, b.seconds/2)
	for t := start.Add(piece); !t.After(end); t = t.Add(piece) {
		time.Sleep(time.Until(t))
		mark()
	}
	wg.Wait()
	window := time.Since(start)
	cpu1, _ := selfRusage()
	gc1 := gcStats()
	if b.trace {
		_, body := rig.get("/metrics")
		reads.scrape(body, true)
	}

	// Drain, then check the daemon's books against the collectors'.
	if err := rig.awaitDecided(30 * time.Second); err != nil {
		b.fail(err)
	}
	var ticks, accepted, coasts, discarded, rejected int64
	for i, s := range rig.sessions {
		st := s.Status()
		ticks += st.Ticks
		accepted += st.Accepted
		coasts += st.Coasts
		discarded += st.Discarded
		rejected += st.Rejected
		if err := checkSession(st, rig.acked[i]); err != nil {
			b.fail(err)
		}
	}
	var acked int64
	for _, n := range rig.acked {
		acked += n
	}
	if acked != accepted {
		b.fail(fmt.Errorf("collectors saw %d samples acked, daemon accepted %d", acked, accepted))
	}

	for _, c := range []*collector{&writes, &reads} {
		b.attempted += c.attempted
		b.failed += c.failed
		if len(c.errs) > 0 && b.checkErr == nil {
			b.checkErr = c.errs[0]
		}
	}
	lagTail, lagLabel := tailQuantile(writes.lagMS)
	if lagTail > float64(maxLag)/float64(time.Millisecond) {
		b.fail(fmt.Errorf("generator fell behind its schedule: lag %s %.1f ms", lagLabel, lagTail))
	}
	if len(writes.decideMS) == 0 {
		return fmt.Errorf("no probe sample was decided")
	}
	for _, ms := range writes.decideMS {
		b.results = append(b.results, time.Duration(ms*float64(time.Millisecond)))
	}
	warm := int64(warmTicks) * int64(shape.sessions)
	decided := float64(ticks - warm)
	_, b.peakRSSMB = selfRusage()

	b.nameLatency("fleet_decision_p50_ms", "fleet_decision_p99_ms", writes.decideMS)
	ackTail, ackLabel := tailQuantile(writes.ackDueMS)
	b.name("fleet_ack_p99_ms", ackTail, "ms", "due → ack, "+ackLabel)
	b.name("fleet_decided_samples_per_s", decided/window.Seconds(), "1/s", fmt.Sprintf("%d sessions × 10 Hz", shape.sessions))
	readTail, readLabel := tailQuantile(reads.readMS)
	b.name("fleet_read_p99_ms", readTail, "ms", readLabel)
	b.name("gen.lag_p99_ms", lagTail, "ms", lagLabel)
	if !b.trace {
		return nil
	}

	heap.finish(b)
	gc1.reportSince(gc0, b)
	busy := (cpu1 - cpu0).Seconds() / (window.Seconds() * float64(runtime.GOMAXPROCS(0)))
	b.name("cpu.busy_share", busy, "ratio", "process CPU / (wall × GOMAXPROCS)")
	b.layer("cpu.busy_share", busy, "ratio")
	overhead := median(writes.tracedDecideMS)/median(writes.untracedDecideMS) - 1
	b.name("trace.overhead_share", overhead, "ratio", "traced vs untraced decision p50")
	b.layer("trace.overhead_share", overhead, "ratio")
	b.layer("fail_ratio", float64(b.failed)/float64(b.attempted), "ratio")

	b.name("wire.encode_us_per_frame", mean(writes.encodeUS), "us", fmt.Sprintf("%d frames", len(writes.encodeUS)))
	rtt := quantile(writes.ackRTTUS, 0.5)
	rttTail, rttLabel := tailQuantile(writes.ackRTTUS)
	b.name("padd.ack_rtt_p50_us", rtt, "us", "send → ack")
	b.name("padd.ack_rtt_p99_us", rttTail, "us", rttLabel)
	postTail, postLabel := tailQuantile(writes.postMS)
	b.name("padd.json_post_p99_ms", postTail, "ms", postLabel)
	b.nameLatency("padd.ack_to_decision_p50_ms", "padd.ack_to_decision_p99_ms", writes.ackToDecideMS)
	b.name("padd.queue_depth_max", max(writes.queueMax, reads.queueMax), "count", "probe polls and /metrics reads")
	if reads.tickCnt1 > reads.tickCnt0 {
		adv := (reads.tickSum1 - reads.tickSum0) / (reads.tickCnt1 - reads.tickCnt0) * 1e6
		b.name("padd.advance_us_mean", adv, "us", "padd_tick_latency_seconds, differenced")
	}
	b.name("padd.backpressure_frames", float64(rig.streamFrames("backpressure")), "count", "")
	b.name("padd.rejected_batches", float64(rejected), "count", "")
	b.name("padd.coasts", float64(coasts), "count", "must be 0")
	b.name("padd.fleet_get_ms", quantile(reads.fleetMS, 0.5), "ms", "p50")
	b.name("padd.metrics_get_ms", quantile(reads.metricsMS, 0.5), "ms", "p50")
	b.name("padd.series_get_ms", quantile(reads.seriesMS, 0.5), "ms", "p50")
	b.name("sim.ticks", float64(ticks), "count", "session ticks")
	b.probeBattery(fleetSPR)
	return b.probeSim(fleetRacks, fleetSPR, 36000)
}

// decided is the number of samples the fleet's sessions have ticked.
func (r *fleetRig) decided() int64 {
	var n int64
	for _, s := range r.sessions {
		n += s.Status().Ticks
	}
	return n
}

// checkSession is the lossless-drain contract for one session: every
// accepted sample ticked, nothing coasted or discarded, and the daemon
// accepted exactly what the collectors saw acknowledged.
func checkSession(st padd.SessionStatus, acked int64) error {
	if st.Ticks != st.Accepted+st.Coasts-st.Discarded {
		return fmt.Errorf("session %s: ticks %d != accepted %d + coasts %d - discarded %d",
			st.ID, st.Ticks, st.Accepted, st.Coasts, st.Discarded)
	}
	if st.Coasts != 0 {
		return fmt.Errorf("session %s: %d coast ticks", st.ID, st.Coasts)
	}
	if st.Discarded != 0 {
		return fmt.Errorf("session %s: %d samples discarded", st.ID, st.Discarded)
	}
	if st.Accepted != acked {
		return fmt.Errorf("session %s: daemon accepted %d samples, collectors saw %d acked", st.ID, st.Accepted, acked)
	}
	return nil
}

// driveWrites is the collectors' goroutine: per due slot one stream
// frame and the slot's JSON posts, then it polls the slot's probe until
// its decision is published.
func (r *fleetRig) driveWrites(b *bench, c *collector, start, end, traceFrom time.Time) {
	var enc wire.Encoder
	flat := make([]float64, fleetServers)
	var waiting []pending
	slotDur := fleetTick / time.Duration(r.shape.slots)

	poll := func() {
		now := time.Now()
		kept := waiting[:0]
		for _, p := range waiting {
			st := p.sess.Status()
			c.queueMax = max(c.queueMax, float64(st.QueueDepth))
			if st.Ticks < p.target {
				kept = append(kept, p)
				continue
			}
			ms := float64(now.Sub(p.due)) / float64(time.Millisecond)
			c.decideMS = append(c.decideMS, ms)
			c.ackToDecideMS = append(c.ackToDecideMS, float64(now.Sub(p.acked))/float64(time.Millisecond))
			if p.traced {
				c.tracedDecideMS = append(c.tracedDecideMS, ms)
				b.spans.add("padd.decide", p.span, p.trace, p.acked, now)
				b.spans.end(p.span, now)
			} else {
				c.untracedDecideMS = append(c.untracedDecideMS, ms)
			}
		}
		waiting = kept
	}
	// waitUntil polls pending probes until t, yielding between polls,
	// and sleeps while nothing is pending.
	waitUntil := func(t time.Time) {
		for {
			if len(waiting) > 0 {
				poll()
			}
			now := time.Now()
			if !now.Before(t) {
				return
			}
			// Sleep only when nothing is pending and the due time is
			// further off than the timer's wake-up slack.
			if d := t.Sub(now); len(waiting) == 0 && d > spinSlack {
				time.Sleep(d - spinSlack)
				continue
			}
			runtime.Gosched()
		}
	}

	seq := 0
	for k := 0; ; k++ {
		for slot := 0; slot < r.shape.slots; slot++ {
			due := start.Add(time.Duration(k)*fleetTick + time.Duration(slot)*slotDur)
			if !due.Before(end) {
				r.finishProbes(c, &waiting, poll)
				return
			}
			waitUntil(due)
			tick := r.sent + k
			c.lagMS = append(c.lagMS, float64(time.Since(due))/float64(time.Millisecond))
			sendAt, ackAt, err := r.sendStreamSlot(c, &enc, flat, slot, tick)
			if err != nil {
				c.fail(err)
				return
			}
			c.ackDueMS = append(c.ackDueMS, float64(ackAt.Sub(due))/float64(time.Millisecond))
			c.ackRTTUS = append(c.ackRTTUS, float64(ackAt.Sub(sendAt))/float64(time.Microsecond))
			for _, p := range r.probes[slot] {
				seq++
				pd := pending{sess: r.sessions[p], target: int64(tick + 1), due: due, acked: ackAt, traced: !due.Before(traceFrom)}
				if pd.traced {
					pd.trace = seq
					pd.span = b.spans.add("fleet.sample", 0, seq, due, due)
					b.spans.add("padd.stream_ack", pd.span, seq, sendAt, ackAt)
				}
				waiting = append(waiting, pd)
			}
			poll()
			r.postJSONSlot(c, flat, slot, tick, poll)
		}
	}
}

// finishProbes waits for the last pending probes after the window.
func (r *fleetRig) finishProbes(c *collector, waiting *[]pending, poll func()) {
	deadline := time.Now().Add(10 * time.Second)
	for len(*waiting) > 0 && time.Now().Before(deadline) {
		poll()
		runtime.Gosched()
	}
	if len(*waiting) > 0 {
		c.fail(fmt.Errorf("%d probe samples never decided", len(*waiting)))
	}
}

// driveReads is the operator: GET /v1/fleet and a series poll every
// readEvery, a GET /metrics scrape every tenth time (and at the start of
// a traced window, to difference the tick-latency histogram from).
func (r *fleetRig) driveReads(b *bench, c *collector, start, end, traceFrom time.Time) {
	var since uint64
	seriesID := r.ids[r.probes[0][0]]
	for n := 1; ; n++ {
		due := start.Add(time.Duration(n) * r.shape.readEvery)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		traced := !due.Before(traceFrom)
		r.operatorRead(b, c, "/v1/fleet", &c.fleetMS, traced, nil)
		path := fmt.Sprintf("/v1/sessions/%s/series?metric=level&res=raw&since=%d", seriesID, since)
		r.operatorRead(b, c, path, &c.seriesMS, traced, func(body []byte) {
			var sr padd.SeriesResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				c.fail(fmt.Errorf("series: %w", err))
				return
			}
			since = sr.Samples
		})
		if n%10 == 0 || (traced && !c.tickScraped) {
			r.operatorRead(b, c, "/metrics", &c.metricsMS, traced, func(body []byte) { c.scrape(body, traced) })
		}
	}
}

// get serves one operator GET through the daemon's handler.
func (r *fleetRig) get(path string) (int, []byte) {
	rec := httptest.NewRecorder()
	r.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// operatorRead issues one GET, timing it into dst and readMS.
func (r *fleetRig) operatorRead(b *bench, c *collector, path string, dst *[]float64, traced bool, use func([]byte)) {
	t0 := time.Now()
	code, body := r.get(path)
	t1 := time.Now()
	ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
	*dst = append(*dst, ms)
	c.readMS = append(c.readMS, ms)
	c.attempted++
	if code != http.StatusOK {
		c.fail(fmt.Errorf("GET %s: HTTP %d", path, code))
		return
	}
	if traced {
		name := path
		if i := strings.IndexByte(name, '?'); i >= 0 {
			name = "/v1/sessions/series"
		}
		b.spans.add("fleet.read"+name, 0, 0, t0, t1)
	}
	if use != nil {
		use(body)
	}
}

// scrape folds one /metrics exposition into the collector: the deepest
// session queue, and the tick-latency histogram sums (the first traced
// scrape and the last are differenced into the mean Advance time).
func (c *collector) scrape(body []byte, traced bool) {
	var sum, cnt float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("padd_session_queue_depth{")):
			c.queueMax = max(c.queueMax, lastField(line))
		case bytes.HasPrefix(line, []byte("padd_tick_latency_seconds_sum{")):
			sum += lastField(line)
		case bytes.HasPrefix(line, []byte("padd_tick_latency_seconds_count{")):
			cnt += lastField(line)
		}
	}
	if !traced {
		return
	}
	if !c.tickScraped {
		c.tickSum0, c.tickCnt0, c.tickScraped = sum, cnt, true
	}
	c.tickSum1, c.tickCnt1 = sum, cnt
}

func lastField(line []byte) float64 {
	f := bytes.Fields(line)
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(f[len(f)-1]), 64)
	return v
}

// streamFrames reads the daemon's stream frame counter for one ack
// result from /metrics.
func (r *fleetRig) streamFrames(result string) int64 {
	_, body := r.get("/metrics")
	prefix := []byte(`padd_stream_frames_total{result="` + result + `"}`)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if bytes.HasPrefix(line, prefix) {
			return int64(lastField(line))
		}
	}
	return 0
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
