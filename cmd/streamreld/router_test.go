package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamrel/client"
	"streamrel/internal/types"
)

// TestRouterInit starts a router with -init over one shard: the script's
// DDL reaches the shard through the router's own session loop, the router
// learns the stream's partition key, and it then serves clients.
func TestRouterInit(t *testing.T) {
	script := filepath.Join(t.TempDir(), "init.sql")
	if err := os.WriteFile(script, []byte(`CREATE STREAM s (k varchar(20), v bigint, at timestamp CQTIME USER) PARTITION BY k;`), 0o644); err != nil {
		t.Fatal(err)
	}
	shard := startDaemon(t, "-addr", "127.0.0.1:0")
	router := startDaemon(t, "-addr", "127.0.0.1:0", "-shards", shard.addr, "-init", script)

	c, err := client.DialOptions(router.addr, client.Options{RPCTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	row := client.Row{types.NewString("a"), types.NewInt(1), types.NewTimestamp(time.Unix(1, 0))}
	if err := c.Append("s", row); err != nil {
		t.Fatalf("append through the router after -init: %v", err)
	}
}
