package padd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxBodyBytes bounds a request body; a full-scale 220-server batch of
// a few hundred samples fits comfortably.
const maxBodyBytes = 32 << 20

// Server is the daemon's HTTP API:
//
//	GET    /healthz                      liveness (503 while draining)
//	GET    /metrics                      Prometheus text exposition
//	POST   /v1/sessions                  create a session (SessionConfig JSON)
//	GET    /v1/sessions                  list session statuses
//	GET    /v1/sessions/{id}             one session's status
//	DELETE /v1/sessions/{id}             stop (drain) and remove a session
//	POST   /v1/sessions/{id}/telemetry   ingest telemetry (202; 429 on full queue)
//	POST   /v1/stream                    persistent streaming ingest (connection upgrade)
//	POST   /v1/sessions/{id}/pause       hold the ingest queue until resume
//	POST   /v1/sessions/{id}/resume      release a paused session
//	GET    /v1/sessions/{id}/events      event log as an obs JSONL trace (?since=TICK)
//	GET    /v1/sessions/{id}/series      ring time series (?metric=soc&res=raw&since=N)
//	GET    /v1/fleet                     fleet rollup (levels, margins, detection latency)
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the API around a manager.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/sessions/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /v1/sessions/{id}/resume", s.handleResume)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}/series", s.handleSeries)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Connection timeouts of the daemon's HTTP listener. A client has
// ReadHeaderTimeout to finish its request headers, and a keep-alive
// connection idle for IdleTimeout is closed, so a peer that never
// completes a request cannot hold a goroutine forever. A connection
// upgraded to /v1/stream keeps the idle limit: it is closed once no
// frame has arrived, or an ack write has not completed, for
// IdleTimeout.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server that serves h on addr with the
// daemon's connection timeouts. cmd/padd's API listener and Replay's
// loopback listener are built with it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// SessionStatus is the JSON view of one session.
type SessionStatus struct {
	ID        string   `json:"id"`
	Scheme    string   `json:"scheme"`
	Racks     int      `json:"racks"`
	Servers   int      `json:"servers"`
	Tick      Duration `json:"tick"`
	Horizon   Duration `json:"horizon"`
	WallClock bool     `json:"wall_clock,omitempty"`

	Ticks    int64    `json:"ticks"`
	Offset   Duration `json:"offset"`
	Finished bool     `json:"finished"`

	Level         int     `json:"level"`
	LevelName     string  `json:"level_name,omitempty"`
	MeanSOC       float64 `json:"mean_soc"`
	MinSOC        float64 `json:"min_soc"`
	MeanMicroSOC  float64 `json:"mean_micro_soc"`
	GridWatts     float64 `json:"grid_watts"`
	ShedServers   int     `json:"shed_servers"`
	ShedWatts     float64 `json:"shed_watts"`
	BreakerMargin float64 `json:"breaker_margin_watts"`
	Tripped       bool    `json:"tripped"`

	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Accepted   int64 `json:"accepted_samples"`
	Rejected   int64 `json:"rejected_batches"`
	Coasts     int64 `json:"coast_ticks"`
	Discarded  int64 `json:"discarded_samples"`
	Anomalies  int64 `json:"anomalies"`

	// UptimeSeconds is wall time since the session was created;
	// LastTelemetryAgeSeconds is wall time since the last accepted
	// telemetry batch, or -1 when none has arrived yet.
	UptimeSeconds           float64 `json:"uptime_seconds"`
	LastTelemetryAgeSeconds float64 `json:"last_telemetry_age_seconds"`
}

// Status snapshots the session's public state.
func (s *Session) Status() SessionStatus {
	cfg := s.Config()
	sm := s.metrics()
	st := SessionStatus{
		ID:        s.ID(),
		Scheme:    cfg.Scheme,
		Racks:     cfg.Racks,
		Servers:   s.st.TotalServers(),
		Tick:      cfg.Tick,
		Horizon:   cfg.Horizon,
		WallClock: cfg.WallClock,

		Ticks:    sm.Ticks,
		Offset:   Duration{sm.Now},
		Finished: sm.Finished,

		Level:         int(sm.Level),
		MeanSOC:       sm.MeanSOC,
		MinSOC:        sm.MinSOC,
		MeanMicroSOC:  sm.MeanMicroSOC,
		GridWatts:     float64(sm.TotalGrid),
		ShedServers:   sm.ShedServers,
		ShedWatts:     float64(sm.ShedWatts),
		BreakerMargin: float64(sm.BreakerMargin),
		Tripped:       sm.Tripped,

		QueueDepth: sm.QueueDepth,
		QueueCap:   cfg.QueueDepth,
		Accepted:   sm.Accepted,
		Rejected:   sm.Rejected,
		Coasts:     sm.Coasts,
		Discarded:  sm.Discarded,
		Anomalies:  sm.Anomalies,

		UptimeSeconds:           time.Since(s.created).Seconds(),
		LastTelemetryAgeSeconds: -1,
	}
	if ns := s.lastIngest.Load(); ns != 0 {
		st.LastTelemetryAgeSeconds = time.Since(time.Unix(0, ns)).Seconds()
	}
	if sm.Level != 0 {
		st.LevelName = sm.Level.String()
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.mgr.Healthy() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mgr.WriteMetrics(w)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad session config: %w", err))
		return
	}
	sess, err := s.mgr.Create(cfg)
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionLimit):
			// The fleet is at -max-sessions: shed load rather than OOM.
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrShuttingDown):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.List()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID() < sessions[j].ID() })
	out := make([]SessionStatus, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil
	}
	return sess
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.Status())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Delete(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	res := sess.Result()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":                sess.ID(),
		"ticks":             sess.metrics().Ticks,
		"tripped":           res.Tripped,
		"survival":          Duration{res.SurvivalTime},
		"effective_attacks": res.EffectiveAttacks,
		"throughput":        res.Throughput,
		"mean_shed_ratio":   res.MeanShedRatio,
	})
}

// TelemetryRequest is the ingest payload: consecutive samples, each one
// control tick of per-server utilization in [0, 1].
type TelemetryRequest struct {
	Samples []TelemetrySample `json:"samples"`
}

// TelemetrySample is one tick of per-server utilization.
type TelemetrySample struct {
	U []float64 `json:"u"`
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req TelemetryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad telemetry: %w", err))
		return
	}
	if len(req.Samples) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("telemetry batch has no samples"))
		return
	}
	samples := make([][]float64, len(req.Samples))
	for i := range req.Samples {
		samples[i] = req.Samples[i].U
	}
	s.mgr.noteFrame()
	if err := sess.Enqueue(samples); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			// Explicit backpressure: the queue is bounded and the
			// client owns the retry. Never buffer unboundedly.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrStopping):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":    len(samples),
		"queue_depth": sess.queueLen(),
	})
}

// StreamProtocol is the Upgrade token of the persistent ingest stream.
const StreamProtocol = "pad-stream/1"

// hijackedConn is the post-upgrade connection: reads go through the
// server's buffered reader (it may have read ahead past the request),
// writes and close go straight to the socket.
type hijackedConn struct {
	r *bufio.Reader
	net.Conn
}

func (h hijackedConn) Read(p []byte) (int, error) { return h.r.Read(p) }

// handleStream upgrades the request into a persistent ingest stream:
// after a 101 handshake the connection stops being HTTP and carries raw
// stream data frames client→server and binary acks server→client until
// either side closes. One upgrade per collector replaces one POST per
// frame — the request lifecycle, not the wire format, bounds the POST
// path's throughput.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeErr(w, http.StatusNotImplemented, errors.New("padd: streaming needs a hijackable connection"))
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// Register before the 101 goes out: a client holding its 101 is
	// counted, and a Shutdown from then on hangs it up. A draining
	// daemon refuses the registration, and the upgrade with it.
	hc := hijackedConn{r: brw.Reader, Conn: conn}
	if !s.mgr.registerStream(hc) {
		body := `{"error":"` + ErrShuttingDown.Error() + `"}` + "\n"
		fmt.Fprintf(brw, "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"+
			"Content-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
		brw.Flush() //nolint:errcheck // the connection closes either way
		conn.Close()
		return
	}
	// The stream keeps the serving listener's idle limit, by net/http's
	// rule: IdleTimeout, or ReadTimeout when that is zero; no limit when
	// the result is not positive. serveStream re-arms it per frame read
	// and per ack write.
	var idle time.Duration
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		idle = hs.IdleTimeout
		if idle == 0 {
			idle = hs.ReadTimeout
		}
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort on a live socket
	if _, err := brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		StreamProtocol + "\r\nConnection: Upgrade\r\n\r\n"); err != nil || brw.Flush() != nil {
		s.mgr.unregisterStream(hc)
		conn.Close()
		return
	}
	s.mgr.serveStream(hc, idle) //nolint:errcheck // connection-level errors end the stream
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		sess.Pause()
		writeJSON(w, http.StatusOK, map[string]string{"status": "paused"})
	}
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		sess.Resume()
		writeJSON(w, http.StatusOK, map[string]string{"status": "running"})
	}
}

// SeriesResponse is the GET /v1/sessions/{id}/series payload: one
// metric's ring at one resolution, oldest bucket first. A bucket's
// simulated start time is Index × StepTicks × TickSeconds from session
// start; Samples is the total appended, so passing it back as ?since=
// fetches only what arrived in between.
type SeriesResponse struct {
	ID          string       `json:"id"`
	Metric      string       `json:"metric"`
	Res         string       `json:"res"`
	StepTicks   int          `json:"step_ticks"`
	TickSeconds float64      `json:"tick_seconds"`
	Samples     uint64       `json:"samples"`
	Buckets     []obs.Bucket `json:"buckets"`
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if sess.series == nil {
		writeErr(w, http.StatusNotFound, errors.New("padd: series recording is disabled for this session"))
		return
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = SeriesMetrics[0]
	}
	ring := sess.series.byName(metric)
	if ring == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("padd: unknown metric %q (one of %v)", metric, SeriesMetrics))
		return
	}
	res := q.Get("res")
	if res == "" {
		res = SeriesResolutions[0]
	}
	tier := seriesTier(res)
	if tier < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("padd: unknown res %q (one of %v)", res, SeriesResolutions))
		return
	}
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	resp := SeriesResponse{
		ID:          sess.ID(),
		Metric:      metric,
		Res:         res,
		StepTicks:   ring.Tiers()[tier].Step,
		TickSeconds: sess.st.Tick().Seconds(),
		Samples:     ring.Len(),
		Buckets:     ring.Snapshot(tier, since, nil),
	}
	if resp.Buckets == nil {
		resp.Buckets = []obs.Bucket{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Fleet())
}

// sinceParam parses the optional ?since= cursor, answering 400 for a
// malformed one.
func sinceParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
	}
	return v, err == nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	meta, events, dropped := sess.Events(int64(min(since, math.MaxInt64)))
	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := obs.NewJSONLSink(w)
	sink.Write(meta, events) //nolint:errcheck // a failed write means the client hung up
	sink.Close(dropped)      //nolint:errcheck // likewise
}
