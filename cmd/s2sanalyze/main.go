// Command s2sanalyze runs the paper's analyses over a dataset written by
// s2sgen, reconstructing the IP-to-AS view from the .bgp.tsv sidecar. It
// does not need the simulator: any dataset in the record format works.
//
// -data accepts all three dataset formats and detects which it got:
// a binary record file (.bin), a JSON-lines file (.jsonl), or a sharded
// store directory (<stem>.store/, written by s2sgen -store). Stores load
// on a parallel shard scan sized by -workers; -pairs restricts the load
// to chosen src-dst timelines, which on a store is pushed down to the
// shard indexes so non-matching shards are never read. The .bgp.tsv
// sidecar is found next to the dataset under the extension-stripped stem
// for every format.
//
// Analysis output goes to stdout; diagnostics go to stderr (silence them
// with -q). -metrics writes a final telemetry snapshot (including the
// store read counters when the dataset is a store), -trace records a
// flight record of the load and analysis phases with one span per shard
// scan (inspect with s2sobs), -ops serves the live run state over HTTP
// while the analysis runs (see s2sgen's doc for the endpoints), and
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile capture pprof
// profiles of the run. SIGQUIT dumps goroutine stacks without killing it.
//
// -live-equivalent TRACE replays the dataset through the same streaming
// operators a live `s2sgen -analyze` run attaches (internal/analysis) and
// asserts the finding stream matches the findings recorded in TRACE, the
// live run's flight record. A match prints a one-line summary; any
// divergence (missing, extra, or different finding at any position) exits
// nonzero with the first mismatch. This pins the determinism contract:
// live and replay produce the same findings in the same order.
//
// Usage:
//
//	s2sanalyze -data dataset.bin|dataset.jsonl|dataset.store
//	           [-analysis table1|paths|changes|dualstack|congestion]
//	           [-live-equivalent TRACE]
//	           [-pairs SRC-DST[,SRC-DST...]] [-workers N]
//	           [-metrics PATH] [-trace PATH] [-metrics-interval D] [-ops ADDR]
//	           [-cpuprofile PATH] [-memprofile PATH]
//	           [-blockprofile PATH] [-mutexprofile PATH] [-q]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core/aspath"
	"repro/internal/core/congest"
	"repro/internal/core/dualstack"
	"repro/internal/core/stats"
	"repro/internal/core/timeline"
	"repro/internal/ipam"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/ops"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "s2sanalyze: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		data         = flag.String("data", "dataset.bin", "dataset path: .bin, .jsonl, or a store directory")
		analysisKind = flag.String("analysis", "table1", "analysis: summary, table1, paths, changes, dualstack, congestion")
		liveEq       = flag.String("live-equivalent", "", "replay the dataset through the streaming operators and assert the findings match this live flight record")
		pairsSpec    = flag.String("pairs", "", "load only these src-dst timelines, e.g. 3-7,12-0 (store datasets prune shards)")
		interval     = flag.Duration("interval", 3*time.Hour, "measurement interval of the dataset")
		workers      = flag.Int("workers", 0, "store-scan and detector workers (0 = all cores, 1 = sequential)")
		rf           = ops.AddRunFlags("s2sanalyze", 24*time.Hour)
	)
	rf.Parse()

	start := time.Now()
	reg := obs.NewRegistry()
	recordsC := reg.Counter(obs.MetricRunRecords, "records the run read")
	if err := rf.Start(reg); err != nil {
		return err
	}
	defer rf.Stop()
	rec, log := rf.Rec, rf.Log
	table, err := loadBGP(dataStem(*data) + ".bgp.tsv")
	if err != nil {
		return err
	}
	mapper := aspath.NewMapper(table)

	// Live-equivalence replay: the archived store streams through the
	// identical operators a live `s2sgen -analyze` run attaches; the
	// resulting findings are compared against the live flight record.
	var (
		stage *analysis.Stage
		got   []analysis.Finding
	)
	if *liveEq != "" {
		stage = analysis.NewStage(analysis.Config{
			Mapper:   mapper,
			Interval: *interval,
			Sink:     func(f analysis.Finding) { got = append(got, f) },
		}, reg, rec)
	}
	var analysisSrc ops.AnalysisSource
	if stage != nil {
		analysisSrc = stage // avoid a typed-nil interface
	}

	if err := rf.Serve(analysisSrc); err != nil {
		return err
	}

	keys, err := parsePairs(*pairsSpec)
	if err != nil {
		return err
	}

	// The loader is a record consumer shared by all three dataset formats.
	// The dataset's record timestamps drive the flight recorder's virtual
	// clock, so metric snapshots land on the same virtual-day boundaries a
	// generating run uses.
	ld := &loader{
		builder:  timeline.NewBuilder(mapper, *interval),
		diffs:    dualstack.NewDiffCollector(mapper),
		stage:    stage,
		recordsC: recordsC,
		rec:      rec,
	}
	stop := obs.Every(2*time.Second, func() {
		log.Progress("%d records read, %.0f records/s",
			recordsC.Value(), float64(recordsC.Value())/time.Since(start).Seconds())
	})
	loadSpan := rec.Begin("load", 0)
	if err := loadDataset(*data, *workers, keys, reg, rec, ld); err != nil {
		stop()
		return err
	}
	loadSpan.End(flight.Attrs{N: recordsC.Value()})
	stop()
	log.EndProgress()
	log.Printf("%d records from %s", recordsC.Value(), *data)
	builder, diffs, pings, lastAt := ld.builder, ld.diffs, ld.pings, ld.lastAt

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	kind := *analysisKind
	if *liveEq != "" {
		kind = "live-equivalent"
	}
	anSpan := rec.Begin("analysis", lastAt)
	switch kind {
	case "live-equivalent":
		stage.Finish()
		want, err := analysis.FindingsFromTrace(*liveEq)
		if err != nil {
			return err
		}
		if err := analysis.DiffStreams(want, got); err != nil {
			return fmt.Errorf("live-equivalence vs %s: %w", *liveEq, err)
		}
		fmt.Fprintf(w, "live-equivalent: %d findings match %s\n", len(got), *liveEq)
	case "summary":
		tls := builder.Timelines()
		v4, v6 := timeline.ByProtocol(tls)
		var span time.Duration
		obsCount := 0
		for _, tl := range tls {
			obsCount += len(tl.Obs)
			if n := len(tl.Obs); n > 0 && tl.Obs[n-1].At > span {
				span = tl.Obs[n-1].At
			}
		}
		report.KeyValues(w, "Dataset summary", map[string]float64{
			"traceroute records":     float64(builder.TallyV4.Total + builder.TallyV6.Total + builder.Incomplete),
			"incomplete traceroutes": float64(builder.Incomplete),
			"ping records":           float64(len(pings)),
			"trace timelines (v4)":   float64(len(v4)),
			"trace timelines (v6)":   float64(len(v6)),
			"usable observations":    float64(obsCount),
			"span (days)":            span.Hours() / 24,
			"paired v4/v6 diffs":     float64(len(diffs.All)),
		})
	case "table1":
		c4, a4, i4 := builder.TallyV4.Fractions()
		c6, a6, i6 := builder.TallyV6.Fractions()
		report.Table(w, "Traceroute completeness", []string{"", "IPv4", "IPv6"}, [][]string{
			{"complete AS-level data", pc(c4), pc(c6)},
			{"missing AS-level data", pc(a4), pc(a6)},
			{"missing IP-level data", pc(i4), pc(i6)},
		})
	case "paths":
		v4, v6 := timeline.ByProtocol(builder.Timelines())
		report.ECDFQuantiles(w, "Unique AS paths per timeline", []report.Series{
			{Name: "IPv4", Values: timeline.PathsPerTimeline(v4, *interval)},
			{Name: "IPv6", Values: timeline.PathsPerTimeline(v6, *interval)},
		}, nil)
		report.ECDFQuantiles(w, "Prevalence of the most popular path", []report.Series{
			{Name: "IPv4", Values: timeline.PopularPrevalence(v4, *interval)},
			{Name: "IPv6", Values: timeline.PopularPrevalence(v6, *interval)},
		}, nil)
	case "changes":
		v4, v6 := timeline.ByProtocol(builder.Timelines())
		report.ECDFQuantiles(w, "Routing changes per timeline", []report.Series{
			{Name: "IPv4", Values: timeline.ChangesPerTimeline(v4)},
			{Name: "IPv6", Values: timeline.ChangesPerTimeline(v6)},
		}, nil)
		life4, delta4 := timeline.LifetimeDeltaSamples(v4, *interval, timeline.ByP10)
		if len(life4) > 0 {
			h, err := stats.DecileHeatmap(life4, delta4, 10)
			if err != nil {
				return err
			}
			report.Heatmap(w, "Lifetime vs Δ10th-pct RTT (IPv4)", h, report.DurationLabel, report.MsLabel)
		}
	case "dualstack":
		report.ECDFQuantiles(w, "RTTv4 − RTTv6 (ms)", []report.Series{
			{Name: "All", Values: diffs.All},
			{Name: "Same AS-paths", Values: diffs.SamePath},
		}, []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95})
		v6s, v4s := dualstack.TailFractions(diffs.All, 50)
		report.KeyValues(w, "Summary", map[string]float64{
			"similar (±10ms) frac": dualstack.SimilarFraction(diffs.All, 10),
			"v6 saves >=50ms frac": v6s,
			"v4 saves >=50ms frac": v4s,
		})
	case "congestion":
		if len(pings) == 0 {
			fmt.Fprintln(w, "no ping records in dataset (use -campaign pings)")
			break
		}
		// Infer cadence and span from the data.
		span := time.Duration(0)
		for _, p := range pings {
			if p.At > span {
				span = p.At
			}
		}
		iv := 15 * time.Minute
		slots := int(span/iv) + 1
		series := congest.BuildSeries(pings, iv, time.Duration(slots)*iv, slots*80/100)
		det := congest.DefaultDetector().WithMetrics(reg)
		v4, v6 := congest.SummarizeParallel(series, det, *workers)
		report.Table(w, "Consistent congestion", []string{"", "IPv4", "IPv6"}, [][]string{
			{"pairs", itoa(v4.Pairs), itoa(v6.Pairs)},
			{"high variation", pc(v4.HighVariationFrac()), pc(v6.HighVariationFrac())},
			{"congested", pc(v4.CongestedFrac()), pc(v6.CongestedFrac())},
		})
	default:
		return fmt.Errorf("unknown analysis %q", *analysisKind)
	}
	anSpan.End(flight.Attrs{S: kind})

	wall := time.Since(start)
	reg.Gauge(obs.MetricRunWallSeconds, "wall-clock duration of the run").Set(wall.Seconds())
	reg.Gauge(obs.MetricRunRecordsPerSec, "records read per wall-clock second").Set(float64(recordsC.Value()) / wall.Seconds())
	return rf.Finish(flight.Manifest{Records: recordsC.Value()})
}

// dataStem strips the dataset extension (.bin, .jsonl, or .store) so the
// sidecar files resolve to the same <stem>.bgp.tsv for every format. This
// is also the fix for the old behavior that only stripped ".bin" and broke
// sidecar lookup for -jsonl datasets.
func dataStem(path string) string {
	for _, ext := range []string{".bin", ".jsonl", ".store"} {
		if strings.HasSuffix(path, ext) {
			return strings.TrimSuffix(path, ext)
		}
	}
	return path
}

// parsePairs expands a "SRC-DST[,SRC-DST...]" spec into timeline keys,
// both protocols per directed pair (the dualstack analysis needs v4 and
// v6 together). An empty spec selects everything.
func parsePairs(spec string) ([]trace.PairKey, error) {
	if spec == "" {
		return nil, nil
	}
	var keys []trace.PairKey
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		src, dst, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("bad pair %q (want SRC-DST)", part)
		}
		s, err := strconv.Atoi(src)
		if err != nil {
			return nil, fmt.Errorf("bad pair %q: %v", part, err)
		}
		d, err := strconv.Atoi(dst)
		if err != nil {
			return nil, fmt.Errorf("bad pair %q: %v", part, err)
		}
		keys = append(keys,
			trace.PairKey{SrcID: s, DstID: d},
			trace.PairKey{SrcID: s, DstID: d, V6: true})
	}
	return keys, nil
}

// loader feeds records into the analysis collectors; it satisfies both
// the store consumer and the flat-read dispatch.
type loader struct {
	builder  *timeline.Builder
	diffs    *dualstack.DiffCollector
	stage    *analysis.Stage // non-nil only in -live-equivalent replay
	pings    []*trace.Ping
	recordsC *obs.Counter
	rec      *flight.Recorder
	lastAt   time.Duration
}

func (l *loader) OnTraceroute(tr *trace.Traceroute) {
	l.recordsC.Inc()
	l.builder.Add(tr)
	l.diffs.Add(tr)
	l.stage.OnTraceroute(tr)
	l.lastAt = tr.At
	l.rec.Advance(tr.At)
}

func (l *loader) OnPing(p *trace.Ping) {
	l.recordsC.Inc()
	l.pings = append(l.pings, p)
	l.stage.OnPing(p)
	l.lastAt = p.At
	l.rec.Advance(p.At)
}

// loadDataset streams a dataset of any format into the loader. Store
// directories scan shards on a worker pool with pair pushdown; flat files
// (.bin or .jsonl) stream front to back with the pair filter applied
// record by record.
func loadDataset(path string, workers int, keys []trace.PairKey, reg *obs.Registry, rec *flight.Recorder, ld *loader) error {
	if store.IsStore(path) {
		s, err := store.Open(path)
		if err != nil {
			return err
		}
		s.Instrument(reg)
		s.Trace(rec)
		if len(keys) > 0 {
			return s.Pairs(workers, keys, ld)
		}
		return s.Scan(workers, ld)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var next func() (any, error)
	if strings.HasSuffix(path, ".jsonl") {
		next = trace.NewJSONLReader(f).Next
	} else {
		next = trace.NewBinaryReader(f).Next
	}
	var want map[trace.PairKey]bool
	if len(keys) > 0 {
		want = make(map[trace.PairKey]bool, len(keys))
		for _, k := range keys {
			want[k] = true
		}
	}
	for {
		v, err := next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch v := v.(type) {
		case *trace.Traceroute:
			if want == nil || want[v.Key()] {
				ld.OnTraceroute(v)
			}
		case *trace.Ping:
			if want == nil || want[v.Key()] {
				ld.OnPing(v)
			}
		}
	}
}

func loadBGP(path string) (*ipam.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ipam.ReadTSV(f)
}

func pc(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

func itoa(n int) string { return strconv.Itoa(n) }
