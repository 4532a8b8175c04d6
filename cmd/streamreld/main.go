// Command streamreld runs a streamrel server: a durable (or in-memory)
// stream-relational engine reachable over TCP with the JSON line protocol
// (see internal/server and the client package).
//
// Usage:
//
//	streamreld -addr 127.0.0.1:7475 -dir data/ [-init schema.sql] [-metrics-addr 127.0.0.1:9090]
//	streamreld -addr 127.0.0.1:7476 -dir rep/ -replica-of 127.0.0.1:7475
//	streamreld -addr 127.0.0.1:7480 -shards 127.0.0.1:7475,127.0.0.1:7476
//
// With -replica-of the node follows the given primary: it applies the
// primary's replication stream (tables, streams and DDL), runs its own
// continuous queries, serves read-only queries, and can be promoted to
// primary with the client's "promote" op.
//
// With -shards the process runs no engine at all: it becomes the shard
// router, speaking the same client protocol in front of the listed shard
// servers — appends split by each stream's PARTITION BY key, snapshot
// queries scatter-gather with a merge step, CQ subscriptions merge
// per-shard windows on close. The shard list order is the shard map;
// keep it stable across router restarts. DDL must flow through the
// router so every shard holds the same schema.
//
// The -metrics-addr listener serves Prometheus text at /metrics, the
// trace ring as JSON at /debug/traces, liveness and readiness probes at
// /healthz and /readyz (a replica reports unready while its apply lag
// exceeds -ready-max-lag), and Go profiling handlers under
// /debug/pprof/. On the router the same paths federate the whole
// cluster: /metrics merges every shard's registry with shard-labeled
// series and /debug/traces stitches distributed spans by trace ID. None
// of these endpoints have authentication: bind the metrics address to
// localhost or a private interface, never a public one.
//
// Engine nodes also snapshot their own telemetry into the reserved
// sys.* streams every -sysmon interval (default 1s), so the engine's
// continuous queries can watch the engine itself — `SELECT name,
// max(value) FROM sys.metrics <ADVANCE '5 seconds'> GROUP BY name` is a
// live alerting rule.
//
// Diagnostics go to stderr as structured JSON lines (log/slog); the
// startup banner stays on stdout.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/server"
	"streamrel/internal/trace"
	"streamrel/replica"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7475", "listen address")
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	initScript := flag.String("init", "", "SQL script to execute at startup")
	syncWAL := flag.Bool("sync", false, "fsync every commit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/traces and /debug/pprof on this address (empty = disabled; keep it private)")
	replicaOf := flag.String("replica-of", "", "follow this primary address as a read replica")
	shards := flag.String("shards", "", "run as a shard router over this comma-separated list of shard servers (order is the shard map)")
	traceSample := flag.Int("trace-sample", 0, "trace one in N ingested batches (0 = default 1/256, 1 = every batch, negative = off)")
	slowFire := flag.Duration("slow-fire", 0, "force-record and log window fires slower than this push-to-fire latency (0 = off)")
	parallelCQ := flag.Int("parallel-cq", 0, "run continuous queries on the worker pool with this mailbox backpressure bound in micro-batches (0 = synchronous engine)")
	sysmonEvery := flag.Duration("sysmon", time.Second, "snapshot engine telemetry into the sys.* streams this often (0 = off)")
	readyMaxLag := flag.Duration("ready-max-lag", 5*time.Second, "replica readiness threshold: /readyz fails while apply lag exceeds this")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err.Error())
		os.Exit(1)
	}

	if *shards != "" {
		if *replicaOf != "" || *dir != "" {
			logger.Error("-shards is mutually exclusive with -dir and -replica-of (the router runs no engine)")
			os.Exit(1)
		}
		runRouter(*addr, *shards, *initScript, *metricsAddr, *traceSample, logger, fatal)
		return
	}

	// Replication is always enabled so any node can serve replicas —
	// including a promoted one.
	eng, err := streamrel.Open(streamrel.Config{
		Dir:               *dir,
		SyncWAL:           *syncWAL,
		Replicate:         true,
		TraceSampleEvery:  *traceSample,
		SlowFireThreshold: *slowFire,
		ParallelCQ:        *parallelCQ,
		SysMonInterval:    *sysmonEvery,
		Logger:            logger,
	})
	if err != nil {
		fatal("engine open failed", err)
	}
	defer eng.Close()

	if *initScript != "" {
		if *replicaOf != "" {
			logger.Error("-init and -replica-of are mutually exclusive (schema arrives from the primary)")
			os.Exit(1)
		}
		data, err := os.ReadFile(*initScript)
		if err != nil {
			fatal("reading init script failed", err)
		}
		if err := eng.ExecScript(string(data)); err != nil {
			fatal("init script failed", err)
		}
	}

	srv := server.New(eng)
	srv.Log = logger
	if hub := eng.Repl(); hub != nil {
		srv.Replicate = hub.ServeConn
	}

	var rep *replica.Replica
	if *replicaOf != "" {
		rep, err = replica.New(replica.Options{
			Addr:   *replicaOf,
			Engine: eng,
			Log:    logger,
		})
		if err != nil {
			fatal("replica setup failed", err)
		}
		srv.Promote = rep.Promote
		rep.Start()
		defer rep.Stop()
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("listen failed", err)
	}
	if *replicaOf != "" {
		fmt.Printf("streamreld listening on %s (dir=%q, replica of %s)\n", bound, *dir, *replicaOf)
	} else {
		fmt.Printf("streamreld listening on %s (dir=%q)\n", bound, *dir)
	}

	serve(srv, *metricsAddr, logger, fatal, map[string]http.Handler{
		"/metrics":      metrics.Handler(eng.Metrics()),
		"/debug/traces": trace.Handler(eng.Tracer()),
		"/readyz":       readyzHandler(rep, *readyMaxLag),
	})
}

// serve is both modes' tail. It starts the debug listener, when addr is
// set, with the mode's handlers beside /healthz and the profiling routes,
// then serves srv until SIGINT or SIGTERM closes it.
func serve(srv *server.Server, addr string, logger *slog.Logger, fatal func(string, error), handlers map[string]http.Handler) {
	if addr != "" {
		mlis, err := net.Listen("tcp", addr)
		if err != nil {
			fatal("metrics listen failed", err)
		}
		mux := http.NewServeMux()
		for path, h := range handlers {
			mux.Handle(path, h)
		}
		// Liveness: 200 while the process serves, whatever its shards or
		// its primary are doing — restarting it heals neither.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		// Profiling handlers registered on this explicit mux (not
		// http.DefaultServeMux) so they exist only on the metrics
		// listener. The metrics address must not be publicly reachable.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("metrics on http://%s/metrics\n", mlis.Addr())
		logger.Info("debug endpoints enabled", "addr", mlis.Addr().String(),
			"paths", "/metrics /debug/traces /healthz /readyz /debug/pprof/")
		go func() {
			if err := http.Serve(mlis, mux); err != nil {
				logger.Warn("metrics server stopped", "error", err.Error())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nshutting down")
		logger.Info("shutting down", "signal", "interrupt/term", "time", time.Now().Format(time.RFC3339))
		srv.Close()
	}()
	if err := srv.Serve(); err != nil {
		fatal("serve failed", err)
	}
}

// readyzHandler is the readiness probe. A primary is ready once it
// serves (recovery ran before Listen). A replica is additionally
// required to be applying within maxLag of the primary, so a load
// balancer drains replicas that fall too far behind to serve fresh
// reads.
func readyzHandler(rep *replica.Replica, maxLag time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if rep == nil {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		lag := rep.LagSeconds()
		if lag > maxLag.Seconds() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"lagging","lag_seconds":%g,"threshold_seconds":%g}`+"\n",
				lag, maxLag.Seconds())
			return
		}
		fmt.Fprintf(w, `{"status":"ok","lag_seconds":%g}`+"\n", lag)
	})
}
