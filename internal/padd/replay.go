package padd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/padd/wire"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// ReplayConfig drives an online/offline equivalence check: the same
// closed-loop demand is run through the offline engine and streamed
// over HTTP into a live session, and the two recordings and event
// streams are compared tick for tick.
type ReplayConfig struct {
	// Schemes to replay; empty means all six.
	Schemes []string
	// Cluster shape and horizon. Zero values take the seed defaults
	// (22 racks × 10 servers) with a short horizon.
	Racks          int
	ServersPerRack int
	Duration       time.Duration
	Tick           time.Duration
	// Seed feeds the background load and the power virus.
	Seed uint64
	// BGMean is the mean background utilization.
	BGMean float64
	// AttackNodes is the number of compromised servers (0 disables the
	// virus, which makes the replay trivially calm).
	AttackNodes int
	// Background, when non-nil, replaces the generated background trace.
	// Length must be Racks×ServersPerRack; the series are read-only and
	// may be shared with other runs. Scenario replays (internal/
	// attacksearch) use this so the daemon sees the exact corpus trace.
	Background []*stats.Series
	// AttackFactory, when non-nil, replaces the canned AttackNodes virus:
	// it is called once per scheme's offline pass and must return fresh
	// controllers each call (controllers are single-run state). This is
	// how coordinated multi-group corpus scenarios enter the replay.
	AttackFactory func() ([]sim.AttackSpec, error)
	// BatchSize is the number of ticks per JSON POST or stream frame.
	BatchSize int
	// Mode selects the online ingest path: ModeJSON (per-session JSON
	// POSTs, the default) or ModeStream (one persistent /v1/stream
	// connection with binary acks). Both must agree with the offline
	// engine bit for bit; -replay proves them.
	Mode string
	// Log, when set, receives one progress line per scheme.
	Log io.Writer
}

// Ingest modes for ReplayConfig.Mode and the load generator.
const (
	ModeJSON   = "json"
	ModeStream = "stream"
)

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Mode == "" {
		c.Mode = ModeJSON
	}
	if len(c.Schemes) == 0 {
		c.Schemes = schemes.SchemeNames
	}
	if c.Racks == 0 {
		c.Racks = 22
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 10
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Minute
	}
	if c.Tick == 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.BGMean == 0 {
		c.BGMean = 0.35
	}
	if c.AttackNodes == 0 {
		c.AttackNodes = 24
	}
	if c.BatchSize == 0 {
		c.BatchSize = 50
	}
	return c
}

// SchemeReplay is one scheme's replay outcome.
type SchemeReplay struct {
	Scheme     string
	Ticks      int
	Tripped    bool
	Mismatches []string
}

// OK reports whether the online run reproduced the offline run exactly.
func (r SchemeReplay) OK() bool { return len(r.Mismatches) == 0 }

// ReplayReport collects every scheme's outcome.
type ReplayReport struct {
	Schemes []SchemeReplay
}

// OK reports whether every scheme replayed exactly.
func (r *ReplayReport) OK() bool {
	for _, s := range r.Schemes {
		if !s.OK() {
			return false
		}
	}
	return true
}

// Replay proves online/offline agreement. For each scheme it runs the
// offline engine manually with a tracer attached — capturing each
// tick's closed-loop demand (background plus power virus, with the
// virus observing the capped frequencies the defense granted) — then
// boots a daemon on a loopback listener, streams those exact demand
// ticks through the HTTP ingest path, and deep-compares the two results
// and recordings, and the offline trace with the session's event log.
// AttackUtil is excluded (the online engine hosts no virus, so it
// records zero) and Key is excluded (it names the run, not the
// physics); everything else must match bit for bit.
func Replay(cfg ReplayConfig) (*ReplayReport, error) {
	cfg = cfg.withDefaults()
	servers := cfg.Racks * cfg.ServersPerRack
	bg := cfg.Background
	if bg == nil {
		bg = stats.NoisyUtilization(servers, cfg.BGMean, cfg.Duration, 10*time.Second, cfg.Seed)
	} else if len(bg) != servers {
		return nil, fmt.Errorf("padd: replay background has %d series for %d servers", len(bg), servers)
	}

	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := NewHTTPServer("", NewServer(mgr))
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	report := &ReplayReport{}
	for _, name := range cfg.Schemes {
		sr, err := replayScheme(cfg, name, bg, mgr, base)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		if cfg.Log != nil {
			verdict := "match"
			if !sr.OK() {
				verdict = fmt.Sprintf("MISMATCH (%d fields)", len(sr.Mismatches))
			}
			fmt.Fprintf(cfg.Log, "replay %-4s %6d ticks  tripped=%-5v %s\n",
				sr.Scheme, sr.Ticks, sr.Tripped, verdict)
		}
		report.Schemes = append(report.Schemes, sr)
	}
	return report, nil
}

func replayScheme(cfg ReplayConfig, name string, bg []*stats.Series, mgr *Manager, base string) (SchemeReplay, error) {
	sr := SchemeReplay{Scheme: name}

	// Offline pass: manual stepping so each tick's demand can be kept.
	tracer := obs.NewTracer(0)
	offline, demand, err := runOffline(cfg, name, bg, tracer)
	if err != nil {
		return sr, err
	}
	sr.Ticks = len(demand)
	sr.Tripped = offline.Tripped

	// Online pass: the same demand, through the daemon's front door.
	online, err := runOnline(cfg, name, demand, mgr, base)
	if err != nil {
		return sr, err
	}

	sr.Mismatches = compareResults(offline, online.Result())
	sr.Mismatches = append(sr.Mismatches, compareEvents(tracer, online, sr.Ticks)...)
	return sr, nil
}

// runOffline reproduces sim.Run by hand with tracer attached, copying
// each tick's demand.
func runOffline(cfg ReplayConfig, name string, bg []*stats.Series, tracer *obs.Tracer) (*sim.Result, [][]float64, error) {
	simCfg := sim.Config{
		Key:            "replay/offline/" + name,
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		Duration:       cfg.Duration,
		Tick:           cfg.Tick,
		Background:     bg,
		Record:         true,
		RecordStep:     cfg.Tick,
		Trace:          tracer,
	}
	scheme, err := schemes.Deploy(&simCfg, name, schemes.DefaultMicroFraction)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case cfg.AttackFactory != nil:
		specs, err := cfg.AttackFactory()
		if err != nil {
			return nil, nil, err
		}
		simCfg.Attacks = specs
	case cfg.AttackNodes > 0:
		atk, err := virus.New(virus.Config{
			Profile:         virus.CPUIntensive,
			SpikeWidth:      10 * time.Second,
			SpikesPerMinute: 3,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		nodes := make([]int, cfg.AttackNodes)
		for i := range nodes {
			nodes[i] = i
		}
		simCfg.Attacks = []sim.AttackSpec{{Servers: nodes, Attack: atk}}
	}
	st, err := sim.NewStepper(simCfg, scheme)
	if err != nil {
		return nil, nil, err
	}
	var demand [][]float64
	for !st.Done() {
		d := st.ComputeDemand()
		cp := make([]float64, len(d))
		copy(cp, d)
		demand = append(demand, cp)
		if err := st.Advance(d); err != nil {
			return nil, nil, err
		}
	}
	return st.Result(), demand, nil
}

// runOnline creates a recording session over HTTP with room to log
// every event, streams the demand ticks as telemetry batches (retrying
// on backpressure), waits for the horizon, and stops the session.
func runOnline(cfg ReplayConfig, name string, demand [][]float64, mgr *Manager, base string) (*Session, error) {
	id := "replay-" + name
	create := SessionConfig{
		ID:             id,
		Scheme:         name,
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		Tick:           Duration{cfg.Tick},
		Horizon:        Duration{cfg.Duration},
		Record:         true,
		RecordStep:     Duration{cfg.Tick},
		EventLog:       maxEventLog,
	}
	if code, body, err := postJSON(base+"/v1/sessions", create); err != nil {
		return nil, err
	} else if code != http.StatusCreated {
		return nil, fmt.Errorf("create session: HTTP %d: %s", code, body)
	}

	if cfg.Mode == ModeStream {
		if err := streamDemand(base, id, demand, cfg.BatchSize); err != nil {
			return nil, err
		}
	} else {
		for start := 0; start < len(demand); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(demand))
			var req TelemetryRequest
			for _, u := range demand[start:end] {
				req.Samples = append(req.Samples, TelemetrySample{U: u})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			for {
				code, respBody, err := post(base+"/v1/sessions/"+id+"/telemetry", "application/json", body)
				if err != nil {
					return nil, err
				}
				if code == http.StatusAccepted {
					break
				}
				if code == http.StatusTooManyRequests {
					// Bounded queue doing its job; let the session drain.
					time.Sleep(2 * time.Millisecond)
					continue
				}
				return nil, fmt.Errorf("telemetry: HTTP %d: %s", code, respBody)
			}
		}
	}

	sess, err := mgr.Get(id)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !sess.metrics().Finished {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("session %s did not finish: %d/%d ticks",
				id, sess.metrics().Ticks, len(demand))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := mgr.Delete(id); err != nil {
		return nil, err
	}
	return sess, nil
}

// streamDemand pushes the demand ticks through one persistent stream
// connection, stop-and-wait: each batch frame is sent and its binary
// ack awaited, retrying the frame on AckBackpressure exactly as the
// JSON path retries 429. Any other non-OK ack is a hard error — a
// replay must be lossless, so a silently dropped record would surface
// as a physics mismatch anyway; failing here names the real cause.
func streamDemand(base, id string, demand [][]float64, batch int) error {
	sc, err := DialStream(base)
	if err != nil {
		return err
	}
	defer sc.Close()
	var enc wire.Encoder
	var a wire.Ack
	for start := 0; start < len(demand); start += batch {
		end := start + batch
		if end > len(demand) {
			end = len(demand)
		}
		enc.Reset()
		if err := enc.AppendSamples(id, demand[start:end]); err != nil {
			return err
		}
		for {
			if _, err := sc.Send(enc.Frame()); err != nil {
				return err
			}
			if err := sc.ReadAck(&a); err != nil {
				return err
			}
			if a.Status == wire.AckOK {
				break
			}
			if a.Status == wire.AckBackpressure {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			return fmt.Errorf("stream telemetry: ack %s (%d rejects)",
				wire.AckStatusName(a.Status), len(a.Rejects))
		}
	}
	return nil
}

func postJSON(url string, v any) (int, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, "", err
	}
	return post(url, "application/json", body)
}

func post(url, contentType string, body []byte) (int, string, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, string(bytes.TrimSpace(out)), nil
}

// compareEvents checks that the session logged exactly the events the
// offline run traced, under the same header. Two sets of kinds are set
// aside first: attack_phase, which only the offline pass emits (the
// online engine hosts no virus), and the daemon's coast, anomaly and
// finished, which only the session emits. A drop on either side is a
// mismatch, not a shorter comparison.
func compareEvents(off *obs.Tracer, on *Session, ticks int) []string {
	var bad []string
	meta, onEv, dropped := on.Events(0)
	if off.Dropped() != 0 || dropped != 0 {
		bad = append(bad, fmt.Sprintf("events dropped: offline %d, online %d", off.Dropped(), dropped))
	}
	offMeta := off.Meta()
	offMeta.Ticks = int64(ticks) // a hand-stepped run never finalizes its header
	if offMeta != meta {
		bad = append(bad, fmt.Sprintf("events header: offline %+v, online %+v", offMeta, meta))
	}
	offEv := slices.DeleteFunc(off.Events(), func(e obs.Event) bool { return e.Kind == obs.KindAttackPhase })
	onEv = slices.DeleteFunc(onEv, func(e obs.Event) bool {
		return e.Kind == obs.KindCoast || e.Kind == obs.KindAnomaly || e.Kind == obs.KindFinished
	})
	if !slices.Equal(offEv, onEv) {
		bad = append(bad, fmt.Sprintf("events: offline %d and online %d differ", len(offEv), len(onEv)))
	}
	return bad
}

// compareResults deep-compares two runs field by field, excluding Key
// (names the run) and Recording.AttackUtil (the online engine hosts no
// virus, so it records zero where the offline engine recorded the
// commanded utilization).
func compareResults(off, on *sim.Result) []string {
	a, b := *off, *on
	a.Key, b.Key = "", ""
	var bad []string
	if a.Recording != nil && b.Recording != nil {
		ra, rb := *a.Recording, *b.Recording
		ra.AttackUtil, rb.AttackUtil = nil, nil
		bad = diffFields("Recording.", ra, rb)
		a.Recording, b.Recording = nil, nil
	}
	return append(bad, diffFields("", a, b)...)
}

// diffFields names each field that differs between two structs of one
// type, with both values unless the field is a series.
func diffFields(prefix string, a, b any) []string {
	var bad []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		x, y := va.Field(i), vb.Field(i)
		if reflect.DeepEqual(x.Interface(), y.Interface()) {
			continue
		}
		name := prefix + va.Type().Field(i).Name
		if k := x.Kind(); k == reflect.Slice || k == reflect.Pointer {
			bad = append(bad, name+": series differ")
		} else {
			bad = append(bad, fmt.Sprintf("%s: offline %v, online %v", name, x, y))
		}
	}
	return bad
}
