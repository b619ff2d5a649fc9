package padd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Shards is the number of independent session shards. Default
	// GOMAXPROCS. Session CRUD and ingest on different shards never
	// contend on a lock.
	Shards int
	// MaxSessions caps resident sessions fleet-wide; 0 means
	// unlimited. Past the cap, Create returns ErrSessionLimit so a
	// runaway load generator degrades into 503s instead of an OOM.
	MaxSessions int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	return o
}

// Manager owns the live sessions, spread over opts.Shards independent
// shards routed by FNV-1a hash of the session id. All methods are safe
// for concurrent use.
type Manager struct {
	opts   Options
	shards []*shard

	nextID atomic.Int64
	closed atomic.Bool
	count  atomic.Int64 // resident sessions, for MaxSessions

	framesJSON atomic.Int64
	batchSizes batchHist

	// det is the fleet-wide detection-latency accounting shared by every
	// shard's executors.
	det detectionStats

	// GC-pause accounting for the padd_go_gc_pauses family: the pause
	// ring in runtime.MemStats is diffed against the last scraped GC
	// cycle under gcMu.
	gcMu      sync.Mutex
	lastNumGC uint32
	gcPauses  gcHist

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

// NewManagerWith creates a session manager sized by opts.
func NewManagerWith(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range m.shards {
		m.shards[i] = newShard(&m.det)
	}
	return m
}

// fnvIndex routes an id to its shard: FNV-1a over the id bytes, modulo
// the shard count. Generic over string | []byte so the binary ingest
// path routes without converting the id.
func fnvIndex[T string | []byte](id T, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % uint32(n))
}

func (m *Manager) shardFor(id string) *shard {
	return m.shards[fnvIndex(id, len(m.shards))]
}

// Create validates cfg, applies defaults and registers a new session
// on its shard.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	if max := int64(m.opts.MaxSessions); max > 0 && m.count.Add(1) > max {
		m.count.Add(-1)
		return nil, ErrSessionLimit
	}
	// From here every failure path must give the slot back.
	rollback := func() { m.count.Add(-1) }

	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("s%d", m.nextID.Add(1))
	}
	sh := m.shardFor(cfg.ID)

	sh.mu.Lock()
	if _, dup := sh.sessions[cfg.ID]; dup {
		sh.mu.Unlock()
		rollback()
		return nil, fmt.Errorf("padd: session %q already exists", cfg.ID)
	}
	// Reserve the id before the (fallible) construction so a concurrent
	// Create of the same id fails fast.
	sh.sessions[cfg.ID] = nil
	sh.mu.Unlock()

	s, err := newSession(cfg.ID, cfg, sh)

	sh.mu.Lock()
	if err != nil {
		delete(sh.sessions, cfg.ID)
		sh.mu.Unlock()
		rollback()
		return nil, err
	}
	if m.closed.Load() {
		// Shutdown raced the construction; drain the orphan ourselves
		// (Stop claims the actor inline if the pool is already gone).
		delete(sh.sessions, cfg.ID)
		sh.mu.Unlock()
		sh.removeWallClock(s)
		s.Stop()
		s.rollupLeave()
		rollback()
		return nil, ErrShuttingDown
	}
	sh.sessions[cfg.ID] = s
	sh.mu.Unlock()
	return s, nil
}

// Get returns the named session.
func (m *Manager) Get(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok || s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// lookupBytes is Get for the binary ingest path: a map lookup keyed by
// a []byte id without allocating the string (the compiler elides the
// conversion inside the index expression).
func (m *Manager) lookupBytes(id []byte) (*Session, error) {
	sh := m.shards[fnvIndex(id, len(m.shards))]
	sh.mu.RLock()
	s, ok := sh.sessions[string(id)]
	sh.mu.RUnlock()
	if !ok || s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// List returns the live sessions in unspecified order.
func (m *Manager) List() []*Session {
	var out []*Session
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			if s != nil {
				out = append(out, s)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// ShardSessions returns the resident-session count per shard, for the
// padd_shard_sessions metric family.
func (m *Manager) ShardSessions() []int {
	out := make([]int, len(m.shards))
	for i, sh := range m.shards {
		sh.mu.RLock()
		n := 0
		for _, s := range sh.sessions {
			if s != nil {
				n++
			}
		}
		out[i] = n
		sh.mu.RUnlock()
	}
	return out
}

// Delete stops the named session (draining its queue) and removes it.
func (m *Manager) Delete(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok || s == nil {
		sh.mu.Unlock()
		return nil, ErrNotFound
	}
	delete(sh.sessions, id)
	sh.mu.Unlock()
	sh.removeWallClock(s)
	s.Stop()
	s.rollupLeave()
	m.count.Add(-1)
	return s, nil
}

// Healthy reports whether the manager accepts work.
func (m *Manager) Healthy() bool { return !m.closed.Load() }

// Shutdown rejects new work, then drains every shard concurrently —
// no acknowledged telemetry is lost — bounded by ctx. The drain is
// two-phase: first every session is flagged stopping and scheduled
// (O(1) per session), then the shard pools chew through the queues in
// parallel while Shutdown waits on the done channels. On deadline the
// pools are left running so an external retry can finish the drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.closed.Store(true)
	// Hang up the stream connections first: acked frames are already
	// enqueued (and will drain below); unacked frames are the client's
	// to resend after reconnecting, exactly as on any dropped link.
	m.closeStreams()

	var ss []*Session
	for _, sh := range m.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			if s != nil {
				ss = append(ss, s)
			}
		}
		sh.mu.RUnlock()
	}
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
	for _, sh := range m.shards {
		sh.stopWorkers()
	}
	return nil
}
