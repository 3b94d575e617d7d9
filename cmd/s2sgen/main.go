// Command s2sgen builds a simulated platform, runs a measurement campaign,
// and writes the dataset plus the sidecar files an external analyzer needs:
//
//	<out>.bin      compact binary records (or <out>.jsonl with -jsonl)
//	<out>.bgp.tsv  the BGP IP-to-AS view  (prefix <TAB> asn)
//	<out>.rel.tsv  AS relationships       (a <TAB> b <TAB> c2p|p2p)
//	<out>.loc.tsv  cluster locations      (id <TAB> lat <TAB> lon <TAB> country)
//
// With -store the dataset is written as a sharded store directory
// (<out>.store/) instead of a flat record file: records are routed into
// per-(day, pair-shard) files with footer indexes and a manifest, which
// s2sanalyze scans in parallel and prunes per-pair (see internal/store).
// -compress gzips the shard payloads; -store-shards sets the pair-hash
// column count. Sidecars keep the <out>.*.tsv names either way.
//
// All diagnostics go to stderr (silence them with -q); stdout carries
// nothing, so the command composes in pipelines. -metrics writes a final
// telemetry snapshot (Prometheus text, or JSON for .json paths), -trace
// records a flight record (inspect with s2sobs), and -cpuprofile/
// -memprofile/-blockprofile/-mutexprofile capture pprof profiles of the
// run. -ops serves live run state over HTTP while the campaign runs:
// /metrics (Prometheus), /healthz (degraded while alert rules fire),
// /runz (JSON run state), /analysisz (streaming-analysis state),
// /flight/tail (streaming flight record; attach `s2sobs watch
// http://ADDR`), and /debug/pprof. SIGQUIT dumps all goroutine stacks to
// stderr without killing the run.
//
// -analyze attaches the streaming-analysis operators (internal/analysis)
// to the record stream: incremental routing-change, congestion, and
// dual-stack delta detection over the live campaign. Findings and
// windowed partial results land in the flight record (watch them with
// `s2sobs watch` or /flight/tail), live state is served on /analysisz,
// and the operators observe only — the dataset is byte-identical with
// -analyze on or off.
//
// Fault injection and resilience: -faults standard|heavy generates a
// deterministic fault schedule (cluster outages, agent crashes, link
// brownouts, ICMP rate limiters) from the seed and threads it through the
// network, the prober, and the platform; -retry and -watchdog arm the
// campaign runtime's recovery machinery. -checkpoint writes periodic
// resume points next to the dataset and -resume continues an interrupted
// run from the last one, producing byte-identical output to an
// uninterrupted run. -crash-at injects a crash at a virtual time (CI uses
// it to exercise resume).
//
// SIGINT/SIGTERM stop the campaign gracefully: the run finishes its
// current round, flushes the dataset, sidecars, and manifest, and exits
// 0 — every delivered record is coherent, and a -checkpoint run resumes
// from its last checkpoint like any interrupted campaign.
//
// Exit codes: 0 success, 1 generic error, 3 dataset sink write failure,
// 7 injected crash.
//
// Usage:
//
//	s2sgen -campaign longterm|pings|short [-seed N] [-days N] [-mesh N] [-o PATH]
//	       [-store] [-compress] [-store-shards N] [-churn X]
//	       [-faults standard|heavy] [-retry N] [-watchdog D]
//	       [-checkpoint D] [-resume] [-crash-at D] [-analyze]
//	       [-metrics PATH] [-trace PATH] [-metrics-interval D] [-ops ADDR]
//	       [-cpuprofile PATH] [-memprofile PATH]
//	       [-blockprofile PATH] [-mutexprofile PATH] [-q]
//	s2sgen -benchjson PATH [-bench-baseline PATH] [-q]
//
// The second form runs a fixed end-to-end campaign benchmark and writes
// a machine-readable trajectory point (see cmd/s2sgen/bench.go and the
// checked-in BENCH_*.json files); with -bench-baseline it exits nonzero
// if allocation volume regressed more than 10% against the named file.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/astopo"
	"repro/internal/bgp"
	"repro/internal/campaign"
	"repro/internal/cdn"
	"repro/internal/congestion"
	"repro/internal/core/aspath"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/ipam"
	"repro/internal/itopo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/ops"
	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	err := run()
	if err == nil {
		return
	}
	var sinkErr *campaign.SinkError
	switch {
	case errors.As(err, &sinkErr):
		fmt.Fprintf(os.Stderr, "s2sgen: dataset sink write failed: %v\n", sinkErr.Err)
		os.Exit(3)
	case errors.Is(err, campaign.ErrInjectedCrash):
		fmt.Fprintf(os.Stderr, "s2sgen: %v\n", err)
		os.Exit(7)
	default:
		fmt.Fprintf(os.Stderr, "s2sgen: %v\n", err)
		os.Exit(1)
	}
}

// flatWriter is the flat-file dataset writer (binary or JSONL framing).
type flatWriter interface {
	campaign.RecordWriter
	Flush() error
}

// flatCheckpointWriter adds checkpointing to a flat-file writer: flush
// the framing, fsync the file, and report the byte offset — a resume
// truncates the file back to it.
type flatCheckpointWriter struct {
	flatWriter
	f *os.File
}

func (w *flatCheckpointWriter) Checkpoint() (int64, error) {
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return w.f.Seek(0, io.SeekCurrent)
}

func run() error {
	var (
		seed      = flag.Int64("seed", 1, "random seed")
		ases      = flag.Int("ases", 300, "number of ASes")
		clusters  = flag.Int("clusters", 400, "number of CDN clusters")
		mesh      = flag.Int("mesh", 24, "measurement mesh size")
		days      = flag.Int("days", 30, "campaign duration in days")
		kind      = flag.String("campaign", "longterm", "campaign: longterm, pings, or short")
		out       = flag.String("o", "dataset", "output path prefix")
		jsonl     = flag.Bool("jsonl", false, "write JSON lines instead of binary records")
		useStore  = flag.Bool("store", false, "write a sharded store directory (<out>.store/) instead of a flat file")
		compress  = flag.Bool("compress", false, "gzip store shard payloads (requires -store)")
		storePS   = flag.Int("store-shards", 0, "pair-shard columns per virtual day (0 = store default)")
		workers   = flag.Int("workers", 0, "measurement workers (0 = all cores, 1 = sequential)")
		churn     = flag.Float64("churn", 1, "multiply routing-event rates (1 = default schedule)")
		analyze   = flag.Bool("analyze", false, "attach streaming-analysis operators (routing/congestion/dualstack) to the record stream")
		rf        = ops.AddRunFlags("s2sgen", 24*time.Hour)
		faultSpec = flag.String("faults", "", "inject a deterministic fault schedule: standard or heavy")
		retries   = flag.Int("retry", 0, "retries per failed measurement (virtual-time backoff)")
		watchdog  = flag.Duration("watchdog", 0, "wall-clock budget per round before it is abandoned as degraded (0 = off)")
		ckptIV    = flag.Duration("checkpoint", 0, "virtual time between campaign checkpoints (<out>.ckpt; 0 = off)")
		resume    = flag.Bool("resume", false, "resume an interrupted campaign from <out>.ckpt")
		crashAt   = flag.Duration("crash-at", 0, "inject a crash at this virtual time (exit 7; for resume testing)")
		benchJSON = flag.String("benchjson", "", "run the fixed campaign benchmark and write a trajectory point (JSON) to this path, then exit")
		benchBase = flag.String("bench-baseline", "", "with -benchjson: compare B/op against this trajectory file, fail on >10% regression")
	)
	rf.Parse()
	log := rf.Log
	if *benchJSON != "" {
		return runBench(*benchJSON, *benchBase, log)
	}
	if *benchBase != "" {
		return fmt.Errorf("-bench-baseline requires -benchjson")
	}
	var campIV time.Duration
	switch *kind {
	case "longterm":
		campIV = 3 * time.Hour
	case "pings":
		campIV = 15 * time.Minute
	case "short":
		campIV = 30 * time.Minute
	default:
		return fmt.Errorf("unknown campaign %q", *kind)
	}

	// Telemetry: every subsystem registers its counters here; the engine
	// joins in through the campaign config. Metrics only observe, so the
	// record stream is byte-identical with or without them. The flight
	// recorder (spans and periodic metric snapshots) keeps the same
	// observation-only contract; a nil recorder threads through every
	// subsystem as a no-op.
	reg := obs.NewRegistry()
	if err := rf.Start(reg); err != nil {
		return err
	}
	defer rf.Stop()
	rec := rf.Rec

	start := time.Now()
	duration := time.Duration(*days) * 24 * time.Hour
	acfg := astopo.DefaultConfig(*seed)
	acfg.NumASes = *ases
	topo, err := astopo.Generate(acfg)
	if err != nil {
		return err
	}
	net, err := itopo.Build(topo, itopo.DefaultConfig(*seed))
	if err != nil {
		return err
	}
	dcfg := bgp.DefaultDynConfig(*seed, duration)
	if *churn > 1 {
		dcfg.LinkMTBF = time.Duration(float64(dcfg.LinkMTBF) / *churn)
		dcfg.FlipMTBF = time.Duration(float64(dcfg.FlipMTBF) / *churn)
	}
	dyn, err := bgp.NewDynamics(topo, dcfg)
	if err != nil {
		return err
	}
	cong, err := congestion.NewModel(net, congestion.DefaultConfig(*seed, duration))
	if err != nil {
		return err
	}
	plat, err := cdn.Deploy(net, cdn.DefaultConfig(*seed, *clusters))
	if err != nil {
		return err
	}
	sim := simnet.New(net, dyn, cong, simnet.DefaultConfig(*seed))
	prober := probe.New(sim)
	servers := campaign.SelectMesh(plat, *mesh, *seed)

	// Fault plan: regenerated deterministically from the seed and platform
	// sizes, so a resumed run reconstructs the exact same schedule.
	var plan *faults.Plan
	if *faultSpec != "" {
		var fcfg faults.Config
		switch *faultSpec {
		case "standard":
			fcfg = faults.Standard(*seed, duration, len(plat.Clusters), len(net.Routers), len(net.Links))
		case "heavy":
			fcfg = faults.Heavy(*seed, duration, len(plat.Clusters), len(net.Routers), len(net.Links))
		default:
			return fmt.Errorf("unknown -faults %q (want standard or heavy)", *faultSpec)
		}
		if plan, err = faults.Generate(fcfg); err != nil {
			return err
		}
		sim.SetFaults(plan)
		prober.Faults = plan
		plat.SetLiveness(plan)
		log.Printf("fault plan: %s", plan)
	}

	sim.Instrument(reg)
	dyn.Instrument(reg)
	prober.Instrument(reg)
	if rec != nil {
		sim.Trace(rec)
		dyn.Trace(rec)
		prober.Trace(rec)
		if plan != nil {
			plan.Emit(rec)
		}
	}

	// Streaming analysis: routing-change, congestion, and dual-stack
	// operators attached to the record stream. Like metrics and the
	// recorder they only observe — the dataset and the rest of the flight
	// record are byte-identical with or without them (see
	// TestAnalysisDoesNotPerturbRecords).
	var stage *analysis.Stage
	if *analyze {
		table := ipam.NewTable()
		for _, e := range net.BGPEntries() {
			if err := table.Insert(e.Prefix, e.Origin); err != nil {
				return err
			}
		}
		stage = analysis.NewStage(analysis.Config{
			Mapper:   aspath.NewMapper(table),
			Interval: campIV,
		}, reg, rec)
	}
	var analysisSrc ops.AnalysisSource
	if stage != nil {
		analysisSrc = stage // avoid a typed-nil interface when -analyze is off
	}

	// Live telemetry: ops HTTP server and/or alert engine. Both observe the
	// same registry and recorder the run already feeds, so turning them on
	// cannot change the dataset (see TestOpsDoesNotPerturbRecords).
	if err := rf.Serve(analysisSrc); err != nil {
		return err
	}

	// Dataset sink. Both paths go through campaign.WriteSink: the first
	// write error is remembered and reported after the campaign; later
	// writes are skipped.
	if *useStore && *jsonl {
		return fmt.Errorf("-store and -jsonl are mutually exclusive (store shards use the binary framing)")
	}
	if *compress && !*useStore {
		return fmt.Errorf("-compress requires -store")
	}
	// Resume: load and validate the checkpoint before touching the sink.
	ckptPath := *out + ".ckpt"
	var resumeCP *campaign.Checkpoint
	if *resume {
		if resumeCP, err = campaign.LoadCheckpoint(ckptPath); err != nil {
			return err
		}
		if err := resumeCP.Compatible("s2sgen", *seed, topo.Digest(), *faultSpec); err != nil {
			return err
		}
		log.Printf("resuming at virtual %v (%d rounds, %d records committed)",
			resumeCP.ResumeAt(), resumeCP.Rounds, resumeCP.Records)
	}
	var (
		sink    *campaign.WriteSink
		finish  func() error // flush/close the dataset after the campaign
		dataOut string       // where the records went, for the final log line
	)
	if *useStore {
		dataOut = *out + ".store"
		var sw *store.Writer
		if *resume {
			// Drop uncommitted segments and continue from the manifest.
			if sw, err = store.Resume(dataOut); err != nil {
				return err
			}
			if sw.Records() != resumeCP.SinkPos {
				return fmt.Errorf("store holds %d committed records, checkpoint expects %d",
					sw.Records(), resumeCP.SinkPos)
			}
		} else {
			compression := ""
			if *compress {
				compression = store.CompressionGzip
			}
			sw, err = store.Create(dataOut, store.Options{
				PairShards:  *storePS,
				Compression: compression,
				Tool:        "s2sgen",
				Seed:        *seed,
				TopoDigest:  topo.Digest(),
			})
			if err != nil {
				return err
			}
		}
		sw.Instrument(reg)
		sink = campaign.NewWriteSink(sw)
		finish = sw.Close
	} else {
		ext := ".bin"
		if *jsonl {
			ext = ".jsonl"
		}
		dataOut = *out + ext
		var f *os.File
		if *resume {
			// Truncate back to the checkpoint's durable offset; everything
			// after it is regenerated byte-identically.
			if f, err = os.OpenFile(dataOut, os.O_RDWR, 0); err != nil {
				return err
			}
			if err := f.Truncate(resumeCP.SinkPos); err != nil {
				return err
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				return err
			}
		} else {
			if f, err = os.Create(dataOut); err != nil {
				return err
			}
		}
		defer f.Close()
		var w flatWriter
		if *jsonl {
			w = trace.NewJSONLWriter(f)
		} else {
			w = trace.NewBinaryWriter(f)
		}
		sink = campaign.NewWriteSink(&flatCheckpointWriter{flatWriter: w, f: f})
		finish = w.Flush
	}
	sink.Instrument(reg)
	sink.Trace(rec)
	if *resume {
		sink.SetCount(resumeCP.Records)
	}
	consumer := campaign.Consumer(sink)
	if stage != nil {
		// Both members stream, so the engine keeps recycling records.
		consumer = campaign.Multi{sink, stage}
	}

	var ck *campaign.Checkpointer
	if *ckptIV > 0 {
		ck = &campaign.Checkpointer{
			Path:       ckptPath,
			Interval:   *ckptIV,
			Sink:       sink,
			Records:    sink.Count,
			Tool:       "s2sgen",
			Seed:       *seed,
			TopoDigest: topo.Digest(),
			Faults:     *faultSpec,
			Metrics:    reg,
			Trace:      rec,
		}
	}
	// Graceful shutdown: the first SIGINT/SIGTERM stops the campaign at the
	// next round boundary; the run then flushes the dataset, sidecars, and
	// flight record and exits 0. A second signal kills immediately.
	shutdown := obs.TrapShutdown()
	abort := func() error {
		if werr := sink.Err(); werr != nil {
			return werr
		}
		if shutdown() {
			return campaign.ErrShutdown
		}
		return nil
	}

	res := campaign.Resilience{Faults: plan, Watchdog: *watchdog}
	if *retries > 0 {
		res.Retry.MaxAttempts = *retries + 1
	}
	if plan != nil {
		// Under a fault plan, persistently dead pairs go on the quarantine
		// list instead of burning probes every round.
		res.QuarantineAfter = 3
	}

	// Progress line: virtual-clock position and cumulative throughput,
	// read from the same registry series the engine updates.
	tasksC := reg.Counter(campaign.MetricTasks, "measurement tasks executed")
	virtualG := reg.Gauge(campaign.MetricVirtualNS, "virtual-clock position of the campaign (nanoseconds since start)")
	stop := obs.Every(2*time.Second, func() {
		el := time.Since(start).Seconds()
		log.Progress("virtual day %.1f/%d, %d records, %.0f records/s",
			virtualG.Value()/86400e9, *days, tasksC.Value(), float64(tasksC.Value())/el)
	})

	switch *kind {
	case "longterm":
		err = campaign.LongTerm(prober, campaign.LongTermConfig{
			Servers:       servers,
			Duration:      duration,
			Interval:      campIV,
			ParisSwitchAt: time.Duration(float64(duration) * 0.62),
			Workers:       *workers,
			Metrics:       reg,
			Trace:         rec,
			Resilience:    res,
			Checkpoint:    ck,
			Resume:        resumeCP,
			CrashAt:       *crashAt,
			Abort:         abort,
		}, consumer)
	case "pings":
		err = campaign.PingMesh(prober, campaign.PingMeshConfig{
			Pairs:      campaign.FullMeshPairs(servers),
			Duration:   duration,
			Interval:   campIV,
			Workers:    *workers,
			Metrics:    reg,
			Trace:      rec,
			Resilience: res,
			Checkpoint: ck,
			Resume:     resumeCP,
			CrashAt:    *crashAt,
			Abort:      abort,
		}, consumer)
	case "short":
		err = campaign.TracerouteCampaign(prober, campaign.TracerouteCampaignConfig{
			Pairs:          campaign.UnorderedPairs(servers),
			Duration:       duration,
			Interval:       campIV,
			BothDirections: true,
			Paris:          true,
			V6:             true,
			Workers:        *workers,
			Metrics:        reg,
			Trace:          rec,
			Resilience:     res,
			Checkpoint:     ck,
			Resume:         resumeCP,
			CrashAt:        *crashAt,
			Abort:          abort,
		}, consumer)
	default:
		stop()
		return fmt.Errorf("unknown campaign %q", *kind)
	}
	stop()
	log.EndProgress()
	if errors.Is(err, campaign.ErrShutdown) {
		// Graceful SIGINT/SIGTERM: the campaign stopped at a round
		// boundary, so every delivered record is coherent. Flush the
		// dataset and sidecars like a normal finish and exit 0 — the run
		// resumes from its last checkpoint like any interrupted campaign.
		log.Printf("shutdown requested: stopping at virtual day %.1f, flushing dataset",
			virtualG.Value()/86400e9)
		err = nil
	}
	if err != nil {
		// An injected crash returns without flushing or writing sidecars —
		// the point is to leave the debris a real crash would.
		return err
	}
	if werr := sink.Err(); werr != nil {
		return &campaign.SinkError{Err: werr}
	}
	if err := finish(); err != nil {
		return err
	}
	count := sink.Count()

	// Close out the streaming analysis: flush remaining finding buckets
	// and open windows into the flight record before the manifest.
	if stage != nil {
		stage.Finish()
		log.Printf("streaming analysis: %d findings", stage.Total())
	}

	// Sidecars.
	if err := writeBGP(*out+".bgp.tsv", net, plat); err != nil {
		return err
	}
	if err := writeRels(*out+".rel.tsv", topo); err != nil {
		return err
	}
	if err := writeLocations(*out+".loc.tsv", plat); err != nil {
		return err
	}

	wall := time.Since(start)
	reg.Gauge(obs.MetricRunWallSeconds, "wall-clock duration of the run").Set(wall.Seconds())
	reg.Counter(obs.MetricRunRecords, "records the run wrote").Add(count)
	reg.Gauge(obs.MetricRunRecordsPerSec, "records written per wall-clock second").Set(float64(count) / wall.Seconds())
	if err := rf.Finish(flight.Manifest{Seed: *seed, TopoDigest: topo.Digest(), Records: count}); err != nil {
		return err
	}

	log.Printf("wrote %d records to %s (+ .bgp.tsv, .rel.tsv, .loc.tsv) in %v",
		count, dataOut, wall.Round(time.Millisecond))
	return nil
}

// writeBGP dumps the announced-prefix view as "prefix\tASN" lines.
func writeBGP(path string, net *itopo.Network, plat *cdn.Platform) error {
	_ = plat
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ipam.WriteTSV(f, net.BGPEntries())
}

func writeRels(path string, topo *astopo.Topology) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, l := range topo.Links {
		fmt.Fprintf(w, "%s\t%s\t%s\n", l.A, l.B, l.Rel)
	}
	return w.Flush()
}

func writeLocations(path string, plat *cdn.Platform) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, c := range plat.Clusters {
		city := geo.Cities[c.City]
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%s\n", c.ID, city.Lat, city.Lon, city.Country)
	}
	return w.Flush()
}
