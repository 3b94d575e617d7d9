// Package serve is the measurement query service: the layer that turns an
// archived internal/store dataset into a long-running HTTP/JSON API served
// by interchangeable replicas — the serving half of the paper's platform,
// where per-pair RTT series, path histories, and routing/congestion
// summaries from the traceroute archive are consumed continuously by
// operators rather than by one-shot batch CLIs.
//
// The package has four layers:
//
//   - Backend answers queries over an opened store.Store, leaning on the
//     store's index pushdown (Store.Pair point lookups open only the shards
//     that can hold the pair and decode only its frames) and reusing the
//     internal/analysis streaming operators in replay mode for per-pair
//     routing/congestion summaries.
//   - Cache is the hot-pair LRU in front of the backend: query results for
//     popular pairs (zipfian in practice) are served from memory with hit,
//     miss, and eviction metrics.
//   - Replica is one query server: admission control, the cache, and the
//     backend behind HTTP. Every answer is a deterministic function of the
//     sealed archive, so replicas opened on the same archive are
//     interchangeable and share no state: there is no primary, no
//     replication protocol, and no coordinator. Each reply carries the
//     archive's content identity (X-S2S-Archive), the one fact a client
//     must check before trusting a replica.
//   - Client + RunFleet are the consumption side: a client that fails over
//     across a static replica list and never accepts an answer from a
//     different archive than its first, and a synthetic client fleet
//     (thousands of concurrent querents, seeded zipfian pair popularity,
//     deterministic request schedule) that drives throughput/latency
//     benchmarks.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core/aspath"
	"repro/internal/ipam"
	"repro/internal/store"
	"repro/internal/trace"
)

// Metric families the query service exports. The cache families feed the
// alert engine's serve_cache_collapse rule; the shed family feeds
// load_shed.
const (
	MetricCacheHits      = "s2s_serve_cache_hits_total"
	MetricCacheMisses    = "s2s_serve_cache_misses_total"
	MetricCacheEvictions = "s2s_serve_cache_evictions_total"
	MetricCacheEntries   = "s2s_serve_cache_entries"
	MetricRequests       = "s2s_serve_requests_total"
	MetricErrors         = "s2s_serve_request_errors_total"
	MetricShed           = "s2s_serve_shed_total"
	MetricLatency        = "s2s_serve_request_seconds"
	// MetricForwards is the family bench/servework.go reports as the
	// serve.forwards layer. A primary used to forward each answer it
	// computed to its backup; replicas forward nothing now, and the same
	// count, answers computed from the store, is the miss counter. Rename
	// the layer and drop this alias with the next benchmark change.
	MetricForwards = MetricCacheMisses
)

// PhServeTick is the flight event of the daemon heartbeat that drives
// metric snapshots and alert evaluation.
const PhServeTick = "serve_tick"

// Endpoints is the fixed set of query endpoints, in display order. The
// per-endpoint request counters and latency histograms are labeled with
// these names.
var Endpoints = []string{"series", "paths", "summary", "pairs", "meta"}

// BackendConfig parameterizes a Backend. Both fields shape answers, so
// both are part of the archive identity.
type BackendConfig struct {
	// Interval is the dataset's measurement cadence — the RTT slot width
	// for the congestion summary operator (default 3h, the long-term
	// campaign round length).
	Interval time.Duration
	// MaxPoints bounds a series response (default 2000 buckets): when the
	// requested step would produce more, the step is widened.
	MaxPoints int
}

func (c BackendConfig) fill() BackendConfig {
	if c.Interval <= 0 {
		c.Interval = 3 * time.Hour
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 2000
	}
	return c
}

// Backend answers queries over one archived store. All methods are safe
// for concurrent use: store reads are concurrency-safe and every query
// builds its own consumer state.
type Backend struct {
	st     *store.Store
	mapper *aspath.Mapper
	cfg    BackendConfig
	id     string
}

// OpenBackend opens the store directory at dataPath and, when a .bgp.tsv
// sidecar exists next to it (extension-stripped stem, like s2sanalyze),
// loads the IP-to-AS view so path history carries AS paths and the
// routing-change summary works. Without the sidecar those degrade
// gracefully: hops-only path history, no routing findings.
func OpenBackend(dataPath string, cfg BackendConfig) (*Backend, error) {
	st, err := store.Open(dataPath)
	if err != nil {
		return nil, err
	}
	stem := strings.TrimSuffix(dataPath, ".store")
	sidecar, err := os.ReadFile(stem + ".bgp.tsv")
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var mapper *aspath.Mapper
	if sidecar != nil {
		table, err := ipam.ReadTSV(bytes.NewReader(sidecar))
		if err != nil {
			return nil, fmt.Errorf("serve: %s.bgp.tsv: %w", stem, err)
		}
		mapper = aspath.NewMapper(table)
	}
	cfg = cfg.fill()
	manifest, err := json.Marshal(st.Manifest())
	if err != nil {
		return nil, fmt.Errorf("serve: archive identity: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "manifest %d\n%s\nsidecar %d\n", len(manifest), manifest, len(sidecar))
	h.Write(sidecar)
	fmt.Fprintf(h, "\ninterval %d max_points %d\n", int64(cfg.Interval), cfg.MaxPoints)
	return &Backend{st: st, mapper: mapper, cfg: cfg, id: hex.EncodeToString(h.Sum(nil)[:8])}, nil
}

// ArchiveID is the archive's content identity: a hash of the store
// manifest, the .bgp.tsv sidecar, and the answer-shaping config. Two
// backends with the same ArchiveID return byte-identical answers, which is
// what lets any replica serve any query; replies carry it as X-S2S-Archive.
func (b *Backend) ArchiveID() string { return b.id }

// Store exposes the underlying store (to instrument it, and for tests).
func (b *Backend) Store() *store.Store { return b.st }

// PairQuery is the parsed parameter set of the per-pair endpoints.
type PairQuery struct {
	Src, Dst int
	V6       bool
	From, To time.Duration // half-open [From, To); To < 0 = unbounded
	Step     time.Duration // series bucket width; 0 = pick from span
}

// Key returns the timeline key of the query.
func (q PairQuery) Key() trace.PairKey { return trace.PairKey{SrcID: q.Src, DstID: q.Dst, V6: q.V6} }

// ParsePairQuery decodes src/dst/v6/from/to/step URL parameters. Durations
// accept Go syntax ("36h") or bare integer nanoseconds.
func ParsePairQuery(v url.Values) (PairQuery, error) {
	q := PairQuery{To: -1}
	var err error
	if q.Src, err = strconv.Atoi(v.Get("src")); err != nil {
		return q, fmt.Errorf("bad or missing src: %q", v.Get("src"))
	}
	if q.Dst, err = strconv.Atoi(v.Get("dst")); err != nil {
		return q, fmt.Errorf("bad or missing dst: %q", v.Get("dst"))
	}
	if s := v.Get("v6"); s != "" {
		if q.V6, err = strconv.ParseBool(s); err != nil {
			return q, fmt.Errorf("bad v6: %q", s)
		}
	}
	for _, p := range []struct {
		name string
		dst  *time.Duration
	}{{"from", &q.From}, {"to", &q.To}, {"step", &q.Step}} {
		s := v.Get(p.name)
		if s == "" {
			continue
		}
		if d, derr := time.ParseDuration(s); derr == nil {
			*p.dst = d
		} else if ns, nerr := strconv.ParseInt(s, 10, 64); nerr == nil {
			*p.dst = time.Duration(ns)
		} else {
			return q, fmt.Errorf("bad %s: %q", p.name, s)
		}
	}
	if q.To >= 0 && q.To <= q.From {
		return q, fmt.Errorf("empty window: from=%v to=%v", q.From, q.To)
	}
	return q, nil
}

// CanonicalKey is the cache key of a query: endpoint plus the normalized
// parameters, independent of URL parameter order or spelling.
func (q PairQuery) CanonicalKey(endpoint string) string {
	return fmt.Sprintf("%s?src=%d&dst=%d&v6=%t&from=%d&to=%d&step=%d",
		endpoint, q.Src, q.Dst, q.V6, int64(q.From), int64(q.To), int64(q.Step))
}

// SeriesPoint is one downsampled RTT bucket.
type SeriesPoint struct {
	AtNS  int64   `json:"at_ns"` // bucket start
	Count int     `json:"count"` // RTT samples in the bucket
	Lost  int     `json:"lost,omitempty"`
	MinMs float64 `json:"min_ms"`
	AvgMs float64 `json:"avg_ms"`
	MaxMs float64 `json:"max_ms"`
}

// SeriesResponse is the /api/series payload: the pair's end-to-end RTT
// series (pings and complete traceroutes both contribute), downsampled to
// step-wide buckets.
type SeriesResponse struct {
	Src     int           `json:"src"`
	Dst     int           `json:"dst"`
	V6      bool          `json:"v6,omitempty"`
	FromNS  int64         `json:"from_ns"`
	ToNS    int64         `json:"to_ns"`
	StepNS  int64         `json:"step_ns"`
	Samples int           `json:"samples"`
	Points  []SeriesPoint `json:"points"`
}

// Series answers a per-pair RTT series query through the store's
// point-lookup path. ctx cancellation stops the store read between
// shard decodes.
func (b *Backend) Series(ctx context.Context, q PairQuery) (*SeriesResponse, error) {
	from, to := b.clampWindow(q)
	step := q.Step
	span := to - from
	if step <= 0 {
		step = span / 240
		if step < b.cfg.Interval {
			step = b.cfg.Interval
		}
	}
	if min := span / time.Duration(b.cfg.MaxPoints); step < min {
		step = min
	}
	n := int((span + step - 1) / step)
	if n < 1 {
		n = 1
	}
	resp := &SeriesResponse{
		Src: q.Src, Dst: q.Dst, V6: q.V6,
		FromNS: int64(from), ToNS: int64(to), StepNS: int64(step),
	}
	type agg struct {
		count, lost   int
		sum, min, max float64
	}
	buckets := make([]agg, n)
	sample := func(at time.Duration, rttMs float64, lost bool) {
		i := int((at - from) / step)
		if i < 0 || i >= n {
			return
		}
		bu := &buckets[i]
		if lost {
			bu.lost++
			return
		}
		if bu.count == 0 || rttMs < bu.min {
			bu.min = rttMs
		}
		if bu.count == 0 || rttMs > bu.max {
			bu.max = rttMs
		}
		bu.count++
		bu.sum += rttMs
		resp.Samples++
	}
	err := b.st.PairCtx(ctx, q.Key(), from, to, consumerFuncs{
		tr: func(tr *trace.Traceroute) {
			if tr.Complete {
				sample(tr.At, float64(tr.RTT)/float64(time.Millisecond), false)
			}
		},
		ping: func(p *trace.Ping) {
			sample(p.At, float64(p.RTT)/float64(time.Millisecond), p.Lost)
		},
	})
	if err != nil {
		return nil, err
	}
	resp.Points = make([]SeriesPoint, 0, n)
	for i, bu := range buckets {
		if bu.count == 0 && bu.lost == 0 {
			continue
		}
		pt := SeriesPoint{AtNS: int64(from + time.Duration(i)*step), Count: bu.count, Lost: bu.lost}
		if bu.count > 0 {
			pt.MinMs = round2(bu.min)
			pt.AvgMs = round2(bu.sum / float64(bu.count))
			pt.MaxMs = round2(bu.max)
		}
		resp.Points = append(resp.Points, pt)
	}
	return resp, nil
}

// PathEpoch is one stretch of consecutive traceroutes sharing the same
// hop-level path.
type PathEpoch struct {
	FirstNS int64    `json:"first_ns"`
	LastNS  int64    `json:"last_ns"`
	Count   int      `json:"count"`
	Hops    []string `json:"hops"`
	ASPath  []int64  `json:"as_path,omitempty"`
}

// PathsResponse is the /api/paths payload: the pair's path history as
// epochs of identical hop sequences, with inferred AS paths when the
// backend has a BGP view.
type PathsResponse struct {
	Src         int         `json:"src"`
	Dst         int         `json:"dst"`
	V6          bool        `json:"v6,omitempty"`
	FromNS      int64       `json:"from_ns"`
	ToNS        int64       `json:"to_ns"`
	Traceroutes int         `json:"traceroutes"`
	Changes     int         `json:"changes"` // epoch transitions = hop-level path changes
	Epochs      []PathEpoch `json:"epochs"`
}

// Paths answers a per-pair path-history query.
func (b *Backend) Paths(ctx context.Context, q PairQuery) (*PathsResponse, error) {
	from, to := b.clampWindow(q)
	resp := &PathsResponse{
		Src: q.Src, Dst: q.Dst, V6: q.V6,
		FromNS: int64(from), ToNS: int64(to),
	}
	var cur *PathEpoch
	var curSig string
	err := b.st.PairCtx(ctx, q.Key(), from, to, consumerFuncs{
		tr: func(tr *trace.Traceroute) {
			resp.Traceroutes++
			hops := make([]string, len(tr.Hops))
			var sig strings.Builder
			for i, h := range tr.Hops {
				if h.Responsive() {
					hops[i] = h.Addr.String()
				} else {
					hops[i] = "*"
				}
				sig.WriteString(hops[i])
				sig.WriteByte('|')
			}
			if cur != nil && sig.String() == curSig {
				cur.LastNS = int64(tr.At)
				cur.Count++
				return
			}
			if cur != nil {
				resp.Changes++
			}
			resp.Epochs = append(resp.Epochs, PathEpoch{
				FirstNS: int64(tr.At), LastNS: int64(tr.At), Count: 1, Hops: hops,
			})
			cur = &resp.Epochs[len(resp.Epochs)-1]
			curSig = sig.String()
			if b.mapper != nil && tr.Complete {
				if r := b.mapper.Infer(tr); r.Usable() {
					cur.ASPath = make([]int64, len(r.Path))
					for i, as := range r.Path {
						cur.ASPath[i] = int64(as)
					}
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// SummaryResponse is the /api/summary payload: the pair's records (both
// protocols) replayed through the streaming-analysis operators —
// routing-change, congestion, and dual-stack findings exactly as a live
// campaign would have emitted them.
type SummaryResponse struct {
	Src      int                 `json:"src"`
	Dst      int                 `json:"dst"`
	FromNS   int64               `json:"from_ns"`
	ToNS     int64               `json:"to_ns"`
	Records  int64               `json:"records"`
	Findings []analysis.Finding  `json:"findings"`
	Analyses []analysis.OpStatus `json:"analyses"`
}

// Summary replays one pair (v4 and v6 timelines, so the dual-stack
// operator sees its round-adjacent pairs) through the analysis operators.
func (b *Backend) Summary(ctx context.Context, q PairQuery) (*SummaryResponse, error) {
	from, to := b.clampWindow(q)
	resp := &SummaryResponse{
		Src: q.Src, Dst: q.Dst,
		FromNS: int64(from), ToNS: int64(to),
		Findings: []analysis.Finding{},
	}
	stage := analysis.NewStage(analysis.Config{
		Mapper:   b.mapper,
		Interval: b.cfg.Interval,
		Sink:     func(f analysis.Finding) { resp.Findings = append(resp.Findings, f) },
	}, nil, nil)
	keys := []trace.PairKey{
		{SrcID: q.Src, DstID: q.Dst, V6: false},
		{SrcID: q.Src, DstID: q.Dst, V6: true},
	}
	// Lookup delivers both timelines in shard order and write order, the
	// order of the live stream, so the finding stream matches what a
	// campaign with -analyze emitted for this pair; the window is pushed
	// down to the store like Series and Paths do.
	err := b.st.Lookup(ctx, keys, from, to, consumerFuncs{
		tr: func(tr *trace.Traceroute) {
			resp.Records++
			stage.OnTraceroute(tr)
		},
		ping: func(p *trace.Ping) {
			resp.Records++
			stage.OnPing(p)
		},
	})
	if err != nil {
		return nil, err
	}
	stage.Finish()
	resp.Analyses = stage.Status().Analyses
	return resp, nil
}

// PairInfo is one timeline key in the /api/pairs listing.
type PairInfo struct {
	Src int  `json:"src"`
	Dst int  `json:"dst"`
	V6  bool `json:"v6,omitempty"`
}

// PairsResponse is the /api/pairs payload.
type PairsResponse struct {
	Count int `json:"count"`
	// Exhaustive is false when shard footers hold bloom filters instead of
	// exact pair lists — the listing is then a lower bound.
	Exhaustive bool       `json:"exhaustive"`
	Pairs      []PairInfo `json:"pairs"`
}

// Pairs lists the store's timeline keys from the shard footers.
func (b *Backend) Pairs() (*PairsResponse, error) {
	keys, exhaustive := b.st.PairKeys()
	resp := &PairsResponse{Count: len(keys), Exhaustive: exhaustive, Pairs: make([]PairInfo, len(keys))}
	for i, k := range keys {
		resp.Pairs[i] = PairInfo{Src: k.SrcID, Dst: k.DstID, V6: k.V6}
	}
	return resp, nil
}

// MetaResponse is the /api/meta payload: the dataset's provenance and
// extent, straight from the store manifest.
type MetaResponse struct {
	Tool        string `json:"tool,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	TopoDigest  string `json:"topo_digest,omitempty"`
	Records     int64  `json:"records"`
	Traceroutes int64  `json:"traceroutes"`
	Pings       int64  `json:"pings"`
	Shards      int    `json:"shards"`
	MinAtNS     int64  `json:"min_at_ns"`
	MaxAtNS     int64  `json:"max_at_ns"`
	HasBGP      bool   `json:"has_bgp"`
}

// Meta answers the dataset-metadata query.
func (b *Backend) Meta() (*MetaResponse, error) {
	m := b.st.Manifest()
	min, max := m.Span()
	return &MetaResponse{
		Tool: m.Tool, Seed: m.Seed, TopoDigest: m.TopoDigest,
		Records: m.Records, Traceroutes: m.Traceroutes, Pings: m.Pings,
		Shards: len(m.Shards), MinAtNS: int64(min), MaxAtNS: int64(max),
		HasBGP: b.mapper != nil,
	}, nil
}

// Answer executes the query named by endpoint and returns the marshaled
// JSON body plus its digest — the unit the cache holds. ctx comes from the
// HTTP request: an abandoned query stops reading the store mid-way instead
// of finishing for nobody.
func (b *Backend) Answer(ctx context.Context, endpoint string, q PairQuery) (body []byte, digest string, err error) {
	var v any
	switch endpoint {
	case "series":
		v, err = b.Series(ctx, q)
	case "paths":
		v, err = b.Paths(ctx, q)
	case "summary":
		v, err = b.Summary(ctx, q)
	case "pairs":
		v, err = b.Pairs()
	case "meta":
		v, err = b.Meta()
	default:
		return nil, "", fmt.Errorf("serve: unknown endpoint %q", endpoint)
	}
	if err != nil {
		return nil, "", err
	}
	body, err = json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	body = append(body, '\n')
	return body, Digest(body), nil
}

// Digest is the response digest stamped on replies as X-S2S-Digest: a
// truncated SHA-256 over the marshaled body.
func Digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// clampWindow resolves a query window against the dataset span.
func (b *Backend) clampWindow(q PairQuery) (from, to time.Duration) {
	min, max := b.st.Manifest().Span()
	from, to = q.From, q.To
	if from < min {
		from = min
	}
	if to < 0 || to > max+1 {
		to = max + 1 // inclusive of the last record
	}
	if to < from {
		to = from
	}
	return from, to
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// consumerFuncs adapts two closures to store.Consumer.
type consumerFuncs struct {
	tr   func(*trace.Traceroute)
	ping func(*trace.Ping)
}

func (c consumerFuncs) OnTraceroute(tr *trace.Traceroute) {
	if c.tr != nil {
		c.tr(tr)
	}
}
func (c consumerFuncs) OnPing(p *trace.Ping) {
	if c.ping != nil {
		c.ping(p)
	}
}

// writeJSON writes a JSON response body (already marshaled or not).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
