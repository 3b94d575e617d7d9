package serve

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// startTestDeployment boots a 3-replica deployment over a fresh fixture
// store.
func startTestDeployment(t *testing.T, cacheEntries int) (*Deployment, []trace.PairKey) {
	t.Helper()
	dir := buildStore(t, 3, 6)
	d, err := StartDeployment(DeployConfig{
		Replicas: 3,
		OpenBackend: func() (*Backend, error) {
			return OpenBackend(dir, BackendConfig{Interval: fixtureInterval})
		},
		CacheEntries: cacheEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	pairs, _ := openTestBackend(t, dir).Store().PairKeys()
	return d, pairs
}

// TestFailover is the stateless-serving acceptance test: kill a replica
// while a client fleet is loading the service, and assert that the fleet
// sees no errors, that every surviving replica reproduces every
// acknowledged digest, and that every answer carries one archive identity.
func TestFailover(t *testing.T) {
	d, pairs := startTestDeployment(t, 256)

	// acked records every digest the service acknowledged, keyed by the
	// request (endpoint + encoded query), and every archive identity seen.
	var mu sync.Mutex
	acked := make(map[string]string)
	archives := make(map[string]bool)
	record := func(key string, resp *Response) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := acked[key]; ok && prev != resp.Digest {
			t.Errorf("digest for %s changed: %s -> %s", key, prev, resp.Digest)
		}
		acked[key] = resp.Digest
		archives[resp.Archive] = true
	}

	// 9 concurrent loaders, three preferring each replica, issue
	// deterministic schedules. Once a third of all requests are done, the
	// first replica is killed; every request must still be answered.
	// Requests issued after the kill by its three loaders must be served
	// by another replica, and at least one must be, or the kill landed
	// after the load and proved nothing.
	const loaders, perLoader = 9, 30
	killed := d.Names[0]
	var (
		completed atomic.Int64
		dead      atomic.Bool
		failovers atomic.Int64
		killNow   = make(chan struct{})
	)
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	for c := 0; c < loaders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &Client{Replicas: Rotate(d.Names, c), Timeout: 15 * time.Second}
			for _, q := range Schedule(99, c, pairs, perLoader, 1.3) {
				after := dead.Load()
				resp, err := cl.Get("/api/"+q.Endpoint, q.Values())
				if err != nil {
					errs <- fmt.Errorf("loader %d: %w", c, err)
					return
				}
				record(q.Endpoint+"?"+q.Values().Encode(), resp)
				if after && cl.Replicas[0] == killed {
					if resp.ServedBy == killed {
						errs <- fmt.Errorf("loader %d: killed replica %s served a request", c, killed)
						return
					}
					failovers.Add(1)
				}
				if completed.Add(1) == loaders*perLoader/3 {
					close(killNow)
				}
			}
		}(c)
	}
	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()
	select {
	case <-killNow:
		if !d.Kill(killed) {
			t.Errorf("replica %s was not running", killed)
		}
		dead.Store(true)
	case <-loadDone: // loaders failed before a third of the load was done
	}
	<-loadDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if failovers.Load() == 0 {
		t.Fatalf("no request issued after the kill by a client preferring %s", killed)
	}

	// Safety: every surviving replica, asked directly, reproduces every
	// acknowledged digest under the same archive identity.
	if len(archives) != 1 {
		t.Fatalf("answers carried %d archive identities, want 1: %v", len(archives), archives)
	}
	for _, name := range d.Names[1:] {
		direct := &Client{Replicas: []string{name}, Timeout: 10 * time.Second}
		for key := range acked {
			ep, rawq, _ := strings.Cut(key, "?")
			vals, _ := url.ParseQuery(rawq)
			resp, err := direct.Get("/api/"+ep, vals)
			if err != nil {
				t.Fatalf("re-query %s on %s: %v", key, name, err)
			}
			if !archives[resp.Archive] {
				t.Fatalf("%s answered %s from archive %s", name, key, resp.Archive)
			}
			record(key, resp)
		}
	}
}

// TestFleetEndToEnd runs a small deterministic fleet against a live
// deployment and sanity-checks the aggregate result.
func TestFleetEndToEnd(t *testing.T) {
	d, pairs := startTestDeployment(t, 512)
	res, err := RunFleet(LoadConfig{
		Replicas: d.Names, Fleet: 16, Requests: 320, Seed: 5, Pairs: pairs,
		Timeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("fleet saw %d errors", res.Errors)
	}
	if res.OK != 320 {
		t.Fatalf("ok = %d, want 320", res.OK)
	}
	if res.CacheHits == 0 {
		t.Fatal("zipfian fleet produced zero cache hits")
	}
	if res.P50us <= 0 || res.P99us < res.P50us || res.MaxUs < res.P99us {
		t.Fatalf("incoherent percentiles: %+v", res)
	}
	if res.RPS <= 0 {
		t.Fatalf("rps = %v", res.RPS)
	}

	// The per-endpoint request counters must account for the fleet's
	// requests (cache hits included), and the fleet must have spread
	// across every replica.
	var served int64
	for _, name := range d.Names {
		var mine int64
		for metric, c := range d.Registries[name].Snapshot().Counters {
			if strings.HasPrefix(metric, MetricRequests) {
				mine += c
			}
		}
		if mine == 0 {
			t.Errorf("replica %s served nothing", name)
		}
		served += mine
	}
	if served < 320 {
		t.Fatalf("replicas served %d requests, want >= 320", served)
	}
}
