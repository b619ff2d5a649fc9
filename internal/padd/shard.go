package padd

import (
	"sync"
	"time"
)

// coasterResolution is how often a shard's coaster sweeps its
// wall-clock sessions. One sweep services every due session in the
// shard, so the resolution bounds coast jitter, not throughput.
const coasterResolution = 10 * time.Millisecond

// shard is one slice of the fleet: a session map under its own mutex,
// a run queue drained by one worker goroutine, and one coaster
// goroutine pacing the shard's wall-clock sessions. Sessions are
// routed to shards by FNV hash of their id, so CRUD and ingest on
// different shards never touch the same lock.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	// rollup is this shard's slice of the fleet aggregates; det points
	// at the manager-wide detection-latency accounting. Both are plain
	// atomics the executing workers update in place.
	rollup shardRollup
	det    *detectionStats

	runMu   sync.Mutex
	runCond *sync.Cond
	runq    []*Session
	head    int
	quit    bool

	wcMu   sync.Mutex
	wall   map[*Session]time.Time // session -> next coast deadline
	wcQuit chan struct{}

	workers  sync.WaitGroup
	stopOnce sync.Once
}

// newShard starts the shard's worker and coaster. One worker per shard:
// with one shard per core, one worker each saturates the machine while
// keeping each session's engine single-threaded by construction.
func newShard(det *detectionStats) *shard {
	sh := &shard{
		sessions: make(map[string]*Session),
		det:      det,
		wall:     make(map[*Session]time.Time),
		wcQuit:   make(chan struct{}),
	}
	sh.runCond = sync.NewCond(&sh.runMu)
	sh.workers.Add(1)
	go sh.worker()
	go sh.coaster()
	return sh
}

// submit queues a session for execution. Only Session.schedule calls
// this, after winning the idle→scheduled transition, so a session is
// never queued twice.
func (sh *shard) submit(s *Session) {
	sh.runMu.Lock()
	sh.runq = append(sh.runq, s)
	sh.runMu.Unlock()
	sh.runCond.Signal()
}

// worker pops sessions off the run queue and executes one slice each.
// On quit it drains whatever remains queued before exiting, so no
// scheduled session is stranded.
func (sh *shard) worker() {
	defer sh.workers.Done()
	for {
		sh.runMu.Lock()
		for sh.head == len(sh.runq) && !sh.quit {
			if sh.head > 0 {
				sh.runq = sh.runq[:0]
				sh.head = 0
			}
			sh.runCond.Wait()
		}
		if sh.head == len(sh.runq) { // quit with an empty queue
			sh.runMu.Unlock()
			return
		}
		s := sh.runq[sh.head]
		sh.runq[sh.head] = nil
		sh.head++
		sh.runMu.Unlock()
		s.runOnce()
	}
}

// stopWorkers shuts the worker and coaster down after the queued work
// drains. Idempotent.
func (sh *shard) stopWorkers() {
	sh.stopOnce.Do(func() {
		sh.runMu.Lock()
		sh.quit = true
		sh.runMu.Unlock()
		sh.runCond.Broadcast()
		sh.workers.Wait()
		close(sh.wcQuit)
	})
}

// addWallClock registers a session with the coaster. Its first coast
// deadline is one tick from now.
func (sh *shard) addWallClock(s *Session) {
	sh.wcMu.Lock()
	sh.wall[s] = time.Now().Add(s.st.Tick())
	sh.wcMu.Unlock()
}

// resetWallClock pushes a session's coast deadline one tick out — used
// by Resume so a long pause doesn't convert into a burst of coasts.
func (sh *shard) resetWallClock(s *Session) {
	sh.wcMu.Lock()
	if _, ok := sh.wall[s]; ok {
		sh.wall[s] = time.Now().Add(s.st.Tick())
	}
	sh.wcMu.Unlock()
}

// removeWallClock drops a session from the coaster.
func (sh *shard) removeWallClock(s *Session) {
	sh.wcMu.Lock()
	delete(sh.wall, s)
	sh.wcMu.Unlock()
}

// coaster replaces one time.Ticker goroutine per wall-clock session
// with a single sweep per shard: every resolution interval it credits
// each due session a coast tick and advances its deadline. A session
// that fell far behind (the process was descheduled) is re-anchored to
// now rather than burst-coasted.
func (sh *shard) coaster() {
	t := time.NewTicker(coasterResolution)
	defer t.Stop()
	for {
		select {
		case <-sh.wcQuit:
			return
		case now := <-t.C:
			sh.wcMu.Lock()
			for s, due := range sh.wall {
				if s.doneClosed() {
					delete(sh.wall, s)
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
				sh.wall[s] = due
				s.coastTick()
			}
			sh.wcMu.Unlock()
		}
	}
}
