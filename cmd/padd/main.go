// Command padd is the online PAD defense daemon. It hosts many
// independent PDU-scale control sessions, each running the same engine
// the offline simulator uses, fed by streamed per-server power
// telemetry over an HTTP JSON API or persistent binary-acked stream
// connections, with Prometheus-style metrics and a per-session event
// log.
//
// Usage:
//
//	padd -addr :8484
//
// Then:
//
//	curl -X POST localhost:8484/v1/sessions -d '{"scheme":"PAD","racks":22,"servers_per_rack":10}'
//	curl -X POST localhost:8484/v1/sessions/s1/telemetry -d '{"samples":[{"u":[0.4, ...]}]}'
//	curl localhost:8484/metrics
//	curl localhost:8484/v1/sessions/s1/events | padtrace -
//
// Persistent streams upgrade POST /v1/stream on the same listener.
//
// With -replay the daemon instead checks itself: it runs every scheme
// offline, streams the identical demand through both of its own ingest
// paths, and exits non-zero unless the online results and event logs
// match the offline results and trace bit for bit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/padd"
	"repro/internal/profiling"
	"repro/internal/version"
)

// prof is package-level so fatal can flush profiles before os.Exit.
var prof *profiling.Flags

func main() {
	var (
		addr         = flag.String("addr", ":8484", "listen address")
		maxSessions  = flag.Int("max-sessions", 0, "resident session cap; creates past it get 503 + Retry-After (0 = unlimited)")
		replay       = flag.Bool("replay", false, "verify online/offline agreement for every scheme through both ingest paths, then exit")
		replayFor    = flag.Duration("replay-duration", 2*time.Minute, "simulated horizon for -replay")
		replaySeed   = flag.Uint64("replay-seed", 42, "seed for the -replay background load and virus")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for draining sessions")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; live complement to the -cpuprofile/-memprofile whole-run flags)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	logFlags := obs.AddLogFlags(flag.CommandLine)
	prof = profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println("padd", version.String())
		return
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()

	if *replay {
		// Every ingest format must reproduce the offline engine exactly;
		// a frame-encoding bug that survives JSON would hide otherwise.
		ok := true
		for _, mode := range []string{padd.ModeJSON, padd.ModeStream} {
			fmt.Printf("-- %s ingest path\n", mode)
			report, err := padd.Replay(padd.ReplayConfig{
				Duration: *replayFor,
				Seed:     *replaySeed,
				Mode:     mode,
				Log:      os.Stdout,
			})
			if err != nil {
				fatal(err)
			}
			if !report.OK() {
				ok = false
				for _, s := range report.Schemes {
					for _, m := range s.Mismatches {
						logger.Error("replay mismatch", "path", mode, "scheme", s.Scheme, "detail", m)
					}
				}
			}
		}
		if !ok {
			prof.Stop()
			os.Exit(1)
		}
		fmt.Println("all schemes: online == offline (json and stream)")
		return
	}

	// The daemon's API server uses its own mux, so the default mux is
	// free for the pprof handlers the blank import registered.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	mgr := padd.NewManagerWith(padd.Options{MaxSessions: *maxSessions})
	srv := padd.NewHTTPServer(*addr, padd.NewServer(mgr))

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		logger.Info("draining sessions", "signal", sig.String())
	}

	// Stop accepting requests, then drain every session so all
	// acknowledged telemetry is processed before exit.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("draining sessions: %w", err))
	}
	logger.Info("drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padd:", err)
	if prof != nil {
		prof.Stop()
	}
	os.Exit(1)
}
