// Command s2sserve is the measurement query service: interchangeable
// daemons answering HTTP/JSON queries over one archived dataset store.
// Replicas share nothing — every answer is a deterministic function of the
// sealed archive, stamped with its identity (X-S2S-Archive) — so a killed
// replica costs its clients one failed attempt before they fail over:
//
//	s2sserve serve   one query replica: serves /api/{series,paths,summary,
//	                 pairs,meta} over a store
//	s2sserve loadgen a synthetic client fleet against running replicas:
//	                 concurrent querents with seeded zipfian pair
//	                 popularity, failing over across the replica list,
//	                 reporting throughput and latency percentiles
//
// The serve daemon carries the standard ops surface on its listen address —
// /metrics, /healthz, /runz, /flight/tail, /debug/pprof — next to its
// query endpoints, and drains gracefully on SIGINT/SIGTERM: in-flight
// requests finish, the flight record is flushed, exit status 0.
//
// Exit codes: 0 success (including signal-initiated shutdown), 1 error,
// 2 bad usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/obs/ops"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "s2sserve: %v\n", err)
		os.Exit(1)
	}
}

func usage() error {
	fmt.Fprintf(os.Stderr, `usage:
  s2sserve serve   -data DIR [-addr :7401] [-name URL] [-cache N]
                   [-max-inflight N] [-interval D] [-trace F] [-metrics-interval D] [-q]
  s2sserve loadgen -replicas URL,URL... [-fleet N] [-requests N] [-seed N] [-zipf S]
                   [-timeout D] [-o F] [-q]
`)
	os.Exit(2)
	return nil
}

func run(args []string) error {
	if len(args) < 1 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "loadgen":
		return runLoadgen(args[1:])
	default:
		return usage()
	}
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// heartbeat drives the metric-snapshot clock with wall time: every
// interval it emits a serve_tick event, which advances the recorder's
// snapshot boundary — /flight/tail gets deltas, `s2sobs watch` gets a
// pulse, and the attached alert engine evaluates its rules.
func heartbeat(rec *flight.Recorder, iv time.Duration, shutdown func() bool) {
	start := time.Now()
	for !shutdown() {
		time.Sleep(iv)
		rec.Event(serve.PhServeTick, time.Since(start), flight.Attrs{})
	}
}

func runServe(args []string) error {
	fs := newFlagSet("serve")
	var (
		dataPath  = fs.String("data", "", "dataset store directory (required)")
		addr      = fs.String("addr", ":7401", "listen address (ops + query endpoints)")
		name      = fs.String("name", "", "advertised base URL (default derived from -addr)")
		cacheN    = fs.Int("cache", 1024, "hot-pair cache entries (0 disables)")
		maxInF    = fs.Int("max-inflight", 0, "bound on concurrent /api/* queries; excess is shed with 503 (0 = unlimited)")
		interval  = fs.Duration("interval", 3*time.Hour, "dataset measurement cadence (summary slot width)")
		tracePath = fs.String("trace", "", "write a flight record to this file")
		metricsIV = fs.Duration("metrics-interval", 5*time.Second, "metric snapshot cadence")
		quiet     = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("serve: -data is required")
	}
	self := *name
	if self == "" {
		var err error
		if self, err = deriveName(*addr); err != nil {
			return err
		}
	}
	log := obs.NewLogger("s2sserve", *quiet)
	reg := obs.NewRegistry()
	rec, err := ops.OpenRecorder(*tracePath, true, flight.Options{
		Tool: "s2sserve", Registry: reg, MetricsInterval: *metricsIV,
	})
	if err != nil {
		return err
	}
	be, err := serve.OpenBackend(*dataPath, serve.BackendConfig{Interval: *interval})
	if err != nil {
		return err
	}
	be.Store().Instrument(reg)
	be.Store().Trace(rec)
	meta, _ := be.Meta()
	log.Printf("store %s: %d records, %d shards, bgp=%t, archive %s",
		*dataPath, meta.Records, meta.Shards, meta.HasBGP, be.ArchiveID())

	r := serve.NewReplica(serve.ReplicaOptions{
		Name: self, Backend: be,
		CacheEntries: *cacheN, MaxInFlight: *maxInF, Registry: reg,
	})
	srv, err := ops.Start(*addr, ops.Options{
		Tool: "s2sserve", Registry: reg, Recorder: rec, Logger: log,
		Extra: r.Handlers(),
	})
	if err != nil {
		return err
	}
	alert.New(alert.Options{Registry: reg, Logger: log, Health: srv.Health()}).Attach(rec)
	log.Printf("replica %s serving", self)

	heartbeat(rec, *metricsIV, obs.TrapShutdown())
	return drain(srv, rec, log, fmt.Sprintf("replica %s", self))
}

// drain is the daemon's graceful exit: stop accepting, finish in-flight
// requests, flush the flight record, exit 0.
func drain(srv *ops.Server, rec *flight.Recorder, log *obs.Logger, what string) error {
	log.Printf("shutdown requested: draining %s", what)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	rec.WriteManifest(flight.Manifest{Tool: "s2sserve", Flags: flight.FlagsSet()})
	if err := rec.Close(); err != nil {
		return err
	}
	log.Printf("%s stopped cleanly", what)
	return nil
}

// deriveName turns a listen address into the advertised URL (the
// X-S2S-Served-By header). An explicit
// host is kept; a bare ":port" advertises loopback. Ephemeral ports need
// -name.
func deriveName(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("serve: cannot derive -name from -addr %q: %v", addr, err)
	}
	if port == "0" || port == "" {
		return "", fmt.Errorf("serve: -addr %q has an ephemeral port; set -name explicitly", addr)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

// fetchPairs pulls the popularity-ranked pair universe from the service.
func fetchPairs(cl *serve.Client) ([]trace.PairKey, error) {
	resp, err := cl.Get("/api/pairs", nil)
	if err != nil {
		return nil, err
	}
	var pr serve.PairsResponse
	if err := json.Unmarshal(resp.Body, &pr); err != nil {
		return nil, err
	}
	keys := make([]trace.PairKey, len(pr.Pairs))
	for i, p := range pr.Pairs {
		keys[i] = trace.PairKey{SrcID: p.Src, DstID: p.Dst, V6: p.V6}
	}
	return keys, nil
}

func runLoadgen(args []string) error {
	fs := newFlagSet("loadgen")
	var (
		replicas = fs.String("replicas", "", "comma-separated replica base URLs (required)")
		fleet    = fs.Int("fleet", 100, "concurrent clients")
		requests = fs.Int("requests", 1000, "total requests across the fleet")
		seed     = fs.Int64("seed", 1, "request-schedule seed")
		zipfS    = fs.Float64("zipf", serve.DefaultZipfS, "pair-popularity zipf skew (> 1)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request timeout including failover retries")
		outPath  = fs.String("o", "", "write the result JSON to this file")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("loadgen: -replicas is required")
	}
	names := strings.Split(*replicas, ",")
	log := obs.NewLogger("s2sserve", *quiet)
	cl := &serve.Client{Replicas: names, Timeout: *timeout}
	pairs, err := fetchPairs(cl)
	if err != nil {
		return fmt.Errorf("loadgen: listing pairs: %w", err)
	}
	if len(pairs) == 0 {
		return fmt.Errorf("loadgen: service reports no pairs")
	}
	log.Printf("fleet %d x %d requests over %d pairs (seed %d, zipf %.2f)",
		*fleet, *requests, len(pairs), *seed, *zipfS)
	res, err := serve.RunFleet(serve.LoadConfig{
		Replicas: names, Fleet: *fleet, Requests: *requests,
		Seed: *seed, ZipfS: *zipfS, Pairs: pairs, Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	printResult(log, res)
	if *outPath != "" {
		if err := writeJSONFile(*outPath, res); err != nil {
			return err
		}
		log.Printf("wrote %s", *outPath)
	}
	return nil
}

func printResult(log *obs.Logger, r *serve.LoadResult) {
	log.Printf("fleet=%d ok=%d errors=%d cache_hits=%d | %.0f req/s | p50=%s p95=%s p99=%s max=%s",
		r.Fleet, r.OK, r.Errors, r.CacheHits, r.RPS,
		us(r.P50us), us(r.P95us), us(r.P99us), us(r.MaxUs))
}

func us(v int64) string { return (time.Duration(v) * time.Microsecond).String() }

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
