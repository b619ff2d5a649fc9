package padd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Manager errors the HTTP layer maps onto status codes.
var (
	// ErrShuttingDown means the daemon is draining (503).
	ErrShuttingDown = errors.New("padd: shutting down")
	// ErrNotFound means no such session (404).
	ErrNotFound = errors.New("padd: no such session")
	// ErrSessionLimit means -max-sessions is reached (503 + Retry-After).
	ErrSessionLimit = errors.New("padd: session limit reached")
)

// Options sizes the manager for its fleet.
type Options struct {
	// MaxSessions caps resident sessions fleet-wide; 0 means
	// unlimited. Past the cap, Create returns ErrSessionLimit so a
	// runaway load generator degrades into 503s instead of an OOM.
	MaxSessions int
}

// coasterResolution is how often the coaster sweeps the wall-clock
// sessions. One sweep services every due session, so the resolution
// bounds coast jitter, not throughput.
const coasterResolution = 10 * time.Millisecond

// Manager owns the live sessions: one session table, one run queue
// drained by GOMAXPROCS workers, and one coaster goroutine pacing the
// wall-clock sessions. All methods are safe for concurrent use.
type Manager struct {
	opts Options

	// sessions maps id to session; a nil value reserves an id whose
	// session is under construction. nextID numbers the sessions created
	// without an id.
	mu       sync.RWMutex
	sessions map[string]*Session
	nextID   int64

	closed atomic.Bool
	count  atomic.Int64 // resident and reserved sessions, for MaxSessions

	// The run queue: sessions with work pending, each queued at most
	// once (Session.schedule), popped by the workers.
	runMu    sync.Mutex
	runCond  *sync.Cond
	runq     []*Session
	head     int
	quit     bool
	workers  sync.WaitGroup
	stopOnce sync.Once

	// The coaster's wall-clock sessions and their next coast deadlines.
	wcMu   sync.Mutex
	wall   map[*Session]time.Time
	wcQuit chan struct{}

	// framesJSON counts JSON telemetry POSTs; batchSizes observes every
	// accepted batch from either path, so its sum is the fleet's
	// accepted samples.
	framesJSON atomic.Int64
	batchSizes histogram

	// rollup and det are the fleet aggregates the executing workers
	// update in place.
	rollup fleetRollup
	det    detectionStats

	// GC-pause accounting for the padd_go_gc_pauses family: the pause
	// ring in runtime.MemStats is diffed against the last scraped GC
	// cycle under gcMu.
	gcMu      sync.Mutex
	lastNumGC uint32
	gcPauses  histogram

	// Persistent-stream state: live connections (closed on Shutdown),
	// frames acked but not yet written (the in-flight window gauge) and
	// per-ack-status frame counters.
	streamMu       sync.Mutex
	streamConns    map[io.Closer]struct{}
	streamInflight atomic.Int64
	streamFrames   [numAckStatuses]atomic.Int64
}

// NewManager creates a session manager with default fleet sizing.
func NewManager() *Manager { return NewManagerWith(Options{}) }

// NewManagerWith creates a session manager sized by opts and starts its
// workers and coaster. One worker per core saturates the machine; each
// session's idle/scheduled/running state machine keeps its engine on
// one worker at a time.
func NewManagerWith(opts Options) *Manager {
	m := &Manager{
		opts:     opts,
		sessions: make(map[string]*Session),
		wall:     make(map[*Session]time.Time),
		wcQuit:   make(chan struct{}),
	}
	m.batchSizes.layout = batchLayout
	m.gcPauses.layout = gcPauseLayout
	m.det.detect.layout = detectionLayout
	m.det.shed.layout = detectionLayout
	m.runCond = sync.NewCond(&m.runMu)
	n := runtime.GOMAXPROCS(0)
	m.workers.Add(n)
	for i := 0; i < n; i++ {
		go m.worker()
	}
	go m.coaster()
	return m
}

// Create validates cfg, applies defaults and registers a new session.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	// Every way out that does not register the session, a panic during
	// construction included, gives the slot and any reserved id back.
	registered, reserved := false, false
	defer func() {
		if registered {
			return
		}
		if reserved {
			m.mu.Lock()
			delete(m.sessions, cfg.ID)
			m.mu.Unlock()
		}
		m.count.Add(-1)
	}()
	if n := m.count.Add(1); m.opts.MaxSessions > 0 && n > int64(m.opts.MaxSessions) {
		return nil, ErrSessionLimit
	}

	m.mu.Lock()
	if cfg.ID == "" {
		// The next s<N> that no client has taken.
		for {
			m.nextID++
			cfg.ID = "s" + strconv.FormatInt(m.nextID, 10)
			if _, taken := m.sessions[cfg.ID]; !taken {
				break
			}
		}
	} else if _, dup := m.sessions[cfg.ID]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("padd: session %q already exists", cfg.ID)
	}
	// Reserve the id before the (fallible) construction so a concurrent
	// Create of the same id fails fast.
	m.sessions[cfg.ID] = nil
	reserved = true
	m.mu.Unlock()

	s, err := newSession(cfg.ID, cfg, m)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed.Load() {
		// Shutdown raced the construction; drain the orphan ourselves
		// (Stop claims the actor inline if the workers are already gone).
		m.mu.Unlock()
		m.removeWallClock(s)
		s.Stop()
		s.rollupLeave()
		return nil, ErrShuttingDown
	}
	m.sessions[cfg.ID] = s
	registered = true
	m.mu.Unlock()
	return s, nil
}

// Get returns the named session.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.RLock()
	s := m.sessions[id]
	m.mu.RUnlock()
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// lookupBytes is Get for the binary ingest path: a map lookup keyed by
// a []byte id without allocating the string (the compiler elides the
// conversion inside the index expression).
func (m *Manager) lookupBytes(id []byte) (*Session, error) {
	m.mu.RLock()
	s := m.sessions[string(id)]
	m.mu.RUnlock()
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// List returns the live sessions in unspecified order.
func (m *Manager) List() []*Session {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Delete stops the named session (draining its queue) and removes it.
func (m *Manager) Delete(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	if s == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	delete(m.sessions, id)
	m.mu.Unlock()
	m.removeWallClock(s)
	s.Stop()
	s.rollupLeave()
	m.count.Add(-1)
	return s, nil
}

// Healthy reports whether the manager accepts work.
func (m *Manager) Healthy() bool { return !m.closed.Load() }

// Shutdown rejects new work, then drains every session — no
// acknowledged telemetry is lost — bounded by ctx. The drain is
// two-phase: first every session is flagged stopping and scheduled
// (O(1) per session), then the workers chew through the run queue in
// parallel while Shutdown waits on the done channels. On deadline the
// workers are left running so an external retry can finish the drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.closed.Store(true)
	// Hang up the stream connections first: acked frames are already
	// enqueued (and will drain below); unacked frames are the client's
	// to resend after reconnecting, exactly as on any dropped link.
	m.closeStreams()

	ss := m.List()
	for _, s := range ss {
		s.beginStop()
	}
	for _, s := range ss {
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	m.stopWorkers()
	return nil
}

// submit queues a session for execution. Only Session.schedule calls
// this, after winning the idle→scheduled transition, so a session is
// never queued twice.
func (m *Manager) submit(s *Session) {
	m.runMu.Lock()
	m.runq = append(m.runq, s)
	m.runMu.Unlock()
	m.runCond.Signal()
}

// worker pops sessions off the run queue and executes one slice each.
// On quit it drains whatever remains queued before exiting, so no
// scheduled session is stranded.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.runMu.Lock()
		for m.head == len(m.runq) && !m.quit {
			if m.head > 0 {
				m.runq = m.runq[:0]
				m.head = 0
			}
			m.runCond.Wait()
		}
		if m.head == len(m.runq) { // quit with an empty queue
			m.runMu.Unlock()
			return
		}
		s := m.runq[m.head]
		m.runq[m.head] = nil
		m.head++
		m.runMu.Unlock()
		s.runOnce()
	}
}

// stopWorkers shuts the workers and the coaster down after the queued
// work drains. Idempotent.
func (m *Manager) stopWorkers() {
	m.stopOnce.Do(func() {
		m.runMu.Lock()
		m.quit = true
		m.runMu.Unlock()
		m.runCond.Broadcast()
		m.workers.Wait()
		close(m.wcQuit)
	})
}

// addWallClock registers a session with the coaster. Its first coast
// deadline is one tick from now.
func (m *Manager) addWallClock(s *Session) {
	m.wcMu.Lock()
	m.wall[s] = time.Now().Add(s.st.Tick())
	m.wcMu.Unlock()
}

// resetWallClock pushes a session's coast deadline one tick out — used
// by Resume so a long pause doesn't convert into a burst of coasts.
func (m *Manager) resetWallClock(s *Session) {
	m.wcMu.Lock()
	if _, ok := m.wall[s]; ok {
		m.wall[s] = time.Now().Add(s.st.Tick())
	}
	m.wcMu.Unlock()
}

// removeWallClock drops a session from the coaster.
func (m *Manager) removeWallClock(s *Session) {
	m.wcMu.Lock()
	delete(m.wall, s)
	m.wcMu.Unlock()
}

// coaster replaces one time.Ticker goroutine per wall-clock session
// with a single sweep: every resolution interval it credits each due
// session a coast tick and advances its deadline. A session that fell
// far behind (the process was descheduled) is re-anchored to now rather
// than burst-coasted.
func (m *Manager) coaster() {
	t := time.NewTicker(coasterResolution)
	defer t.Stop()
	for {
		select {
		case <-m.wcQuit:
			return
		case now := <-t.C:
			m.wcMu.Lock()
			for s, due := range m.wall {
				if s.doneClosed() {
					delete(m.wall, s)
					continue
				}
				if now.Before(due) {
					continue
				}
				tick := s.st.Tick()
				due = due.Add(tick)
				if due.Before(now) {
					due = now.Add(tick)
				}
				m.wall[s] = due
				s.coastTick()
			}
			m.wcMu.Unlock()
		}
	}
}
