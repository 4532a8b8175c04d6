package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"streamrel/client"
	"streamrel/internal/shard"
	"streamrel/internal/sql"
)

// runRouter is streamreld's -shards mode: no engine, just the shard
// router in front of the listed shard servers.
func runRouter(addr, shardList, initScript, metricsAddr string, traceSample int, logger *slog.Logger, fatal func(string, error)) {
	var addrs []string
	for _, a := range strings.Split(shardList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	r, err := shard.NewRouter(shard.Options{
		Addrs:            addrs,
		Log:              logger,
		TraceSampleEvery: traceSample,
	})
	if err != nil {
		fatal("router setup failed", err)
	}
	defer r.Close()
	if up := r.WaitReady(10 * time.Second); up < len(addrs) {
		logger.Warn("not all shards reachable at startup; routing degrades to partial results", "up", up, "shards", len(addrs))
	}

	bound, err := r.Listen(addr)
	if err != nil {
		fatal("listen failed", err)
	}
	fmt.Printf("streamreld listening on %s (router over %d shards: %s)\n", bound, len(addrs), shardList)

	if initScript != "" {
		if err := routerInit(r, initScript); err != nil {
			fatal("init script failed", err)
		}
	}
	// Federated views: /metrics merges every shard's registry with the
	// router's own (shard-labeled series); /debug/traces stitches
	// distributed spans back together by trace ID.
	serve(r.Server, metricsAddr, logger, fatal, map[string]http.Handler{
		"/metrics":      r.MetricsHandler(),
		"/debug/traces": r.TracesHandler(),
		"/readyz":       r.ReadyzHandler(),
	})
}

// routerInit replays a SQL script through the router's own session loop,
// over a pipe, so DDL broadcasts to every shard and the router's catalog
// mirror learns the schema — the supported way to re-seed a restarted
// router.
func routerInit(r *shard.Router, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stmts, err := sql.ParseScript(string(data))
	if err != nil {
		return err
	}
	conn, ours := net.Pipe()
	go r.ServeConn(ours)
	c := client.New(conn, "", client.Options{})
	defer c.Close()
	for _, st := range stmts {
		if _, err := c.Exec(st.Text); err != nil {
			return fmt.Errorf("%s: %w", st.Text, err)
		}
	}
	return nil
}
