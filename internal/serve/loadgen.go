package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// DefaultZipfS is the default zipfian skew of the synthetic fleet's pair
// popularity. Operators in practice watch a few pairs obsessively and the
// long tail rarely; s=1.2 over the pair universe reproduces that shape.
const DefaultZipfS = 1.2

// Query is one scheduled fleet request.
type Query struct {
	Endpoint string
	Pair     trace.PairKey
}

// Values renders the query's URL parameters.
func (q Query) Values() url.Values {
	v := url.Values{}
	if q.Endpoint == "pairs" || q.Endpoint == "meta" {
		return v
	}
	v.Set("src", fmt.Sprint(q.Pair.SrcID))
	v.Set("dst", fmt.Sprint(q.Pair.DstID))
	if q.Pair.V6 {
		v.Set("v6", "true")
	}
	return v
}

// Schedule generates client c's deterministic request sequence: n queries
// whose pair choice is zipfian over the (popularity-ranked) pairs slice
// and whose endpoint mix approximates an operator console — mostly RTT
// series, then path history, with occasional metadata and full analysis
// replays. The same (seed, c) always yields the same sequence, so a bench
// or smoke run is reproducible end to end.
func Schedule(seed int64, c int, pairs []trace.PairKey, n int, zipfS float64) []Query {
	if zipfS <= 1 {
		zipfS = DefaultZipfS
	}
	rng := rand.New(rand.NewSource(seed ^ int64(uint64(c+1)*0x9e3779b97f4a7c15)))
	var zipf *rand.Zipf
	if len(pairs) > 1 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(pairs)-1))
	}
	qs := make([]Query, n)
	for i := range qs {
		var pair trace.PairKey
		if zipf != nil {
			pair = pairs[zipf.Uint64()]
		} else if len(pairs) == 1 {
			pair = pairs[0]
		}
		roll := rng.Intn(100)
		var ep string
		switch {
		case roll < 60:
			ep = "series"
		case roll < 85:
			ep = "paths"
		case roll < 93:
			ep = "meta"
		case roll < 98:
			ep = "pairs"
		default:
			ep = "summary"
		}
		qs[i] = Query{Endpoint: ep, Pair: pair}
	}
	return qs
}

// LoadConfig parameterizes a synthetic fleet run.
type LoadConfig struct {
	// Replicas are the replicas' base URLs. Client c starts at
	// Replicas[c mod len] and fails over through the rest in list order,
	// so the fleet spreads across the replicas.
	Replicas []string
	// Fleet is the number of concurrent clients; Requests the total request
	// count across the fleet.
	Fleet    int
	Requests int
	// Seed makes the request schedule deterministic.
	Seed int64
	// ZipfS is the pair-popularity skew (default 1.2).
	ZipfS float64
	// Pairs is the popularity-ranked pair universe (typically /api/pairs
	// order).
	Pairs []trace.PairKey
	// Timeout bounds each request including failover retries (default 30s).
	Timeout time.Duration
	// HTTPClient overrides the fleet-shared transport.
	HTTPClient *http.Client
}

// LoadResult is the fleet's aggregate outcome — the benchmark record.
type LoadResult struct {
	Fleet     int     `json:"fleet"`
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Errors    int     `json:"errors"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
	RPS       float64 `json:"rps"`
	P50us     int64   `json:"p50_us"`
	P95us     int64   `json:"p95_us"`
	P99us     int64   `json:"p99_us"`
	MaxUs     int64   `json:"max_us"`
}

// RunFleet launches Fleet concurrent clients against the service and
// reports throughput and latency percentiles. Each client walks its own
// deterministic schedule; requests ride the failover Client, so a replica
// dying mid-run shows up as a latency bump, not an error burst.
func RunFleet(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Fleet <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: loadgen needs fleet > 0 and requests > 0")
	}
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs a pair universe")
	}
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs at least one replica")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		// Bound concurrent sockets: past a few hundred connections the
		// bench measures fd churn, not the service. Excess requests queue
		// inside the transport.
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 512,
			MaxConnsPerHost:     512,
		}}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	per := cfg.Requests / cfg.Fleet
	rem := cfg.Requests % cfg.Fleet

	type clientResult struct {
		lat       []int64 // microseconds, successes only
		errors    int
		cacheHits int
	}
	results := make([]clientResult, cfg.Fleet)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Fleet; c++ {
		n := per
		if c < rem {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			// Each client jitters its retries from its own seed: an outage
			// spreads the fleet's retry wave deterministically instead of
			// replaying it in lockstep.
			cl := &Client{Replicas: Rotate(cfg.Replicas, c), HC: hc, Timeout: timeout,
				Seed: cfg.Seed ^ int64(uint64(c+1)*0x9e3779b97f4a7c15)}
			res := &results[c]
			res.lat = make([]int64, 0, n)
			for _, q := range Schedule(cfg.Seed, c, cfg.Pairs, n, cfg.ZipfS) {
				t0 := time.Now()
				resp, err := cl.Get("/api/"+q.Endpoint, q.Values())
				if err != nil {
					res.errors++
					continue
				}
				res.lat = append(res.lat, time.Since(t0).Microseconds())
				if resp.CacheHit {
					res.cacheHits++
				}
			}
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &LoadResult{Fleet: cfg.Fleet, Requests: cfg.Requests}
	var all []int64
	for _, res := range results {
		all = append(all, res.lat...)
		out.Errors += res.errors
		out.CacheHits += res.cacheHits
	}
	out.OK = len(all)
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		out.RPS = float64(out.OK) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		out.P50us = percentile(all, 0.50)
		out.P95us = percentile(all, 0.95)
		out.P99us = percentile(all, 0.99)
		out.MaxUs = all[len(all)-1]
	}
	return out, nil
}

// Rotate returns the replica list starting at names[c mod len]: client c's
// preference order, so a fleet spreads its first choices evenly.
func Rotate(names []string, c int) []string {
	k := c % len(names)
	return append(append([]string(nil), names[k:]...), names[:k]...)
}

// percentile reads the q-th quantile from sorted microsecond samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
