package streamrel

import (
	"fmt"
	"net/http"
	"strings"

	"streamrel/internal/sql"
	"streamrel/internal/sysmon"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// The sys.* namespace holds reserved, engine-created telemetry streams
// (sys.metrics, sys.pipelines, sys.slow_fires, sys.repl — see
// internal/sysmon). They exist when Config.SysMonInterval is non-zero,
// carry CQTIME SYSTEM semantics, and are ephemeral: never WAL-logged,
// never replicated, never checkpointed — a restarted engine recreates
// them empty. User DDL and DML against the namespace is rejected;
// Subscribe (and CREATE CHANNEL … FROM sys.…) is how telemetry leaves.

// isSysName reports whether name lives in the reserved sys namespace.
func isSysName(name string) bool {
	return name == "sys" || strings.HasPrefix(name, "sys.")
}

// errSysReserved is the uniform rejection for user writes to sys.*.
func errSysReserved(name string) error {
	return fmt.Errorf("streamrel: %q is in the reserved sys namespace (engine-created telemetry; read-only)", name)
}

// sysDDLTarget returns the offending name when a user DDL statement would
// create or drop an object in the sys namespace, "" otherwise. Reading
// from sys.* (a channel's FROM clause, view queries) is allowed.
func sysDDLTarget(stmt sql.Statement) string {
	var names []string
	switch s := stmt.(type) {
	case *sql.CreateTable:
		names = []string{s.Name}
	case *sql.CreateStream:
		names = []string{s.Name}
	case *sql.CreateDerivedStream:
		names = []string{s.Name}
	case *sql.CreateView:
		names = []string{s.Name}
	case *sql.CreateChannel:
		names = []string{s.Name, s.Into}
	case *sql.CreateIndex:
		names = []string{s.Name, s.Table}
	case *sql.Drop:
		names = []string{s.Name}
	}
	for _, n := range names {
		if isSysName(n) {
			return n
		}
	}
	return ""
}

// initSysMon creates the reserved streams and the monitor. Called from
// Open after recovery, so the streams never appear in the DDL log, the
// WAL, checkpoints, or replication snapshots.
func (e *Engine) initSysMon() error {
	for _, def := range sysmon.Streams() {
		if _, err := e.cat.CreateStreamPartitioned(def.Name, def.Schema, def.CQTimeCol, true, -1); err != nil {
			return fmt.Errorf("streamrel: creating %s: %w", def.Name, err)
		}
		if err := e.rt.RegisterInternalSource(def.Name, def.Schema, def.CQTimeCol); err != nil {
			return fmt.Errorf("streamrel: registering %s: %w", def.Name, err)
		}
	}
	interval := e.cfg.SysMonInterval
	if interval < 0 {
		interval = 0 // streams + manual SysSnapshot only
	}
	spans := func() []trace.Span { return nil }
	if e.tracer != nil {
		spans = e.tracer.Snapshot
	}
	e.sysmon = sysmon.New(sysmon.Config{
		Gather: e.reg.Gather,
		Stats:  e.rt.Stats,
		Spans:  spans,
		ReplInfo: func() (string, uint64) {
			if e.replicaMode.Load() {
				return "replica", 0
			}
			if e.hub != nil {
				return "primary", e.hub.LSN()
			}
			return "", 0
		},
		Push:     e.sysAppend,
		Now:      e.cfg.Now,
		Interval: interval,
		Metrics:  e.reg,
		Logger:   e.cfg.Logger,
	})
	e.sysmon.Start()
	return nil
}

// sysAppend is the monitor's path into the stream runtime: it stamps
// CQTIME SYSTEM arrival time and pushes, bypassing the write gate (a
// replica still observes itself), the WAL, replication publish, trace
// sampling and user-facing row counters (internal source).
func (e *Engine) sysAppend(streamName string, rows []types.Row) error {
	if _, ok := e.cat.Stream(streamName); !ok {
		return fmt.Errorf("streamrel: sys stream %q not registered", streamName)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil
	}
	_, err := e.push(trace.Ctx{}, streamName, rows)
	return err
}

// SysSnapshot takes one telemetry snapshot immediately, appending fresh
// rows to every sys.* stream. It is how tests and embedders drive the
// monitor deterministically (set SysMonInterval < 0 for streams without
// the background ticker). Errors if sysmon is disabled.
func (e *Engine) SysSnapshot() error {
	if e.sysmon == nil {
		return fmt.Errorf("streamrel: sysmon is disabled (set Config.SysMonInterval)")
	}
	return e.sysmon.Tick()
}

// SubscribeAlert turns a continuous query into a webhook alert rule: each
// window close POSTs a JSON payload (rule SQL, window boundary, columns,
// rows) to url. The returned stop function closes the CQ and waits for
// the delivery goroutine. Delivery is best-effort: failures count in
// streamrel_sysmon_alert_errors_total and the rule keeps running.
func (e *Engine) SubscribeAlert(sqlText, url string, httpClient *http.Client) (stop func(), err error) {
	cq, err := e.Subscribe(sqlText)
	if err != nil {
		return nil, err
	}
	sink := sysmon.NewWebhookSink(url, httpClient, e.reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			b, ok := cq.Next()
			if !ok {
				return
			}
			// Error already counted by the sink; the rule keeps firing.
			_ = sink.Deliver(sqlText, b.Close, cq.Columns, b.Rows)
		}
	}()
	return func() {
		cq.Close()
		<-done
	}, nil
}
