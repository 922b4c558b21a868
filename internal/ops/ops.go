// Package ops serves multiclust's live operational surface over a stdlib
// http.Server: Prometheus metrics from an obs.Collector, the span tree,
// the standard pprof debug endpoints, and a health probe. Both CLIs
// expose it behind a `-serve addr` flag so a long sweep can be profiled
// and watched while it runs.
//
// Endpoints:
//
//	/metrics        Collector.WriteProm output (text exposition format),
//	                byte-identical to the CLI's -metrics dump of the
//	                same state
//	/spans          the hierarchical span tree (Snapshot.WriteSpanTree)
//	/healthz        "ok" with process uptime — pure liveness: it stays
//	                200 for as long as the process can answer at all
//	/readyz         readiness: 200 when the optional Ready hook reports
//	                nil, 503 with the reason otherwise (job queue
//	                saturated, server draining); without a hook it
//	                mirrors liveness
//	/debug/pprof/   index, profile, heap, goroutine, cmdline, symbol,
//	                trace — the net/http/pprof handler set
//
// MuxOptions additionally mounts application handlers (the job engine's
// /v1/jobs API) on the same server, so one -serve flag exposes the whole
// operational surface.
package ops

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"multiclust/internal/obs"
)

// MuxOptions customizes the ops mux beyond the collector: a readiness
// hook for /readyz and extra application mounts.
type MuxOptions struct {
	// Ready backs /readyz: nil error (or a nil hook) means ready. A
	// non-nil error flips /readyz to 503 with the error text — the
	// signal load balancers use to stop routing new work here while
	// /healthz keeps reporting the process alive.
	Ready func() error
	// Mounts are extra handlers registered verbatim on the mux, keyed by
	// pattern (e.g. "/v1/jobs" and "/v1/jobs/"). Registration order is
	// irrelevant: net/http routes by pattern, not insertion.
	Mounts map[string]http.Handler
	// Log receives one http.request access-log line per request from the
	// Instrument middleware that NewServerOpts/ServeOpts wrap around the
	// mux. nil disables access logging (tracing and metrics still run).
	Log *obs.Logger
}

// NewMuxOpts routes the ops endpoints plus opt's readiness hook and
// application mounts. col may be nil, in which case /metrics and /spans
// report 503 Service Unavailable (the pprof and health endpoints still
// work).
func NewMuxOpts(col *obs.Collector, opt MuxOptions) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime_s=%.0f\n", time.Since(start).Seconds())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opt.Ready != nil {
			if err := opt.Ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	for pattern, h := range opt.Mounts {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if col == nil {
			http.Error(w, "no collector installed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := col.WriteProm(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if col == nil {
			http.Error(w, "no collector installed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = col.Snapshot().WriteSpanTree(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewServerOpts wraps the ops mux, with opt's readiness hook and
// application mounts, in an http.Server with conservative timeouts.
// WriteTimeout stays 0 because /debug/pprof/profile streams for its
// `seconds` parameter (30s default) and a write deadline would truncate
// the profile; slow-loris exposure is bounded by ReadHeaderTimeout and
// IdleTimeout instead. The whole mux is wrapped in the Instrument
// middleware, so every request gets a trace id, a latency histogram
// observation and (with opt.Log set) an access-log line.
func NewServerOpts(addr string, col *obs.Collector, opt MuxOptions) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           Instrument(NewMuxOpts(col, opt), opt.Log),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// Handle is a running ops server; Shutdown stops it gracefully.
type Handle struct {
	URL string // http://host:port with the bound (possibly ephemeral) port
	srv *http.Server
	err chan error
}

// Serve binds addr (host:port; port 0 picks an ephemeral port) and
// serves the ops endpoints in a background goroutine until Shutdown.
func Serve(addr string, col *obs.Collector) (*Handle, error) {
	return ServeOpts(addr, col, MuxOptions{})
}

// ServeOpts is Serve with a readiness hook and application mounts — how the
// CLI exposes the job engine's /v1/jobs API next to the ops endpoints.
func ServeOpts(addr string, col *obs.Collector, opt MuxOptions) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	h := &Handle{
		URL: "http://" + ln.Addr().String(),
		srv: NewServerOpts(ln.Addr().String(), col, opt),
		err: make(chan error, 1),
	}
	//lint:ignore nakedgo HTTP accept loop is I/O lifecycle, not compute; it never touches algorithm state, so the determinism contract is unaffected
	go func() { h.err <- h.srv.Serve(ln) }()
	return h, nil
}

// Shutdown stops accepting connections and waits (bounded by ctx) for
// in-flight requests, then reports any serve-loop error other than the
// expected http.ErrServerClosed.
func (h *Handle) Shutdown(ctx context.Context) error {
	if err := h.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("ops: shutdown: %w", err)
	}
	if err := <-h.err; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("ops: serve: %w", err)
	}
	return nil
}
