package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
	"repro/internal/serve"
)

// DrillConfig parameterizes one chaos drill: an in-process deployment of
// interchangeable replicas, a seeded client fleet whose every request
// crosses the chaos transport, and a scripted partition that cuts one
// replica off from every client mid-run.
type DrillConfig struct {
	// OpenBackend builds each replica's backend. Required.
	OpenBackend func() (*serve.Backend, error)
	// Seed derives the fault schedule, the fleet's request schedules, and
	// every client's retry jitter: same seed, same drill.
	Seed int64
	// Replicas (default 3; at least 2, so the partitioned replica's
	// clients have somewhere to fail over to).
	Replicas int
	// Fleet is the concurrent client count (default 12 — enough, against
	// MaxInFlight slots, to keep admission control shedding).
	Fleet int
	// MaxInFlight is each replica's admission bound (default 2,
	// deliberately tight so the drill proves the shed path).
	MaxInFlight int
	// CacheEntries per replica (default 0: every query exercises the
	// backend, not the cache).
	CacheEntries int
	// Horizon bounds the generated noise (default 2s).
	Horizon time.Duration
	// PartitionAfter is when (on the fault clock) the first replica is
	// cut off from every client (default 600ms); PartitionFor how long
	// the cut lasts (default 500ms).
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	// ClientTimeout bounds one fleet request including retries
	// (default 10s).
	ClientTimeout time.Duration
	// TracePath, when set, writes the drill's flight record — scripted
	// chaos windows and alert transitions in one file.
	TracePath string
	// MetricsInterval is the snapshot/alert cadence (default 250ms).
	MetricsInterval time.Duration
	// Logger observes the drill (optional).
	Logger *obs.Logger
}

func (c DrillConfig) fill() DrillConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Fleet <= 0 {
		c.Fleet = 12
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.PartitionAfter <= 0 {
		c.PartitionAfter = 600 * time.Millisecond
	}
	if c.PartitionFor <= 0 {
		c.PartitionFor = 500 * time.Millisecond
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 10 * time.Second
	}
	if c.MetricsInterval <= 0 {
		c.MetricsInterval = 250 * time.Millisecond
	}
	return c
}

// DrillReport is the drill's verdict, written as JSON by `s2sserve
// chaos`. SafetyOK is the headline: no two answers for one query ever
// disagreed — not during the chaos, and not when every replica was asked
// for every acknowledged key after the heal.
type DrillReport struct {
	Schema    string  `json:"schema"`
	Seed      int64   `json:"seed"`
	ElapsedMS float64 `json:"elapsed_ms"`

	Partitioned string `json:"partitioned"`

	Requests   int `json:"requests"`
	Acked      int `json:"acked"`
	AckErrors  int `json:"ack_errors"`
	UniqueKeys int `json:"unique_keys"`
	// Failovers and CutLeaks count acknowledged answers whose request
	// began and ended while the cut was in force. Failovers are those of
	// clients whose first choice is the partitioned replica, served by
	// another one; CutLeaks are those the partitioned replica served,
	// which must be none. Shed replies and generated noise also move
	// answers off a first choice, so only both together show that the
	// scripted partition isolated the replica and its clients failed over.
	Failovers int `json:"failovers"`
	CutLeaks  int `json:"cut_leaks"`

	Contradictions int `json:"contradictions"`
	RequeryErrors  int `json:"requery_errors"`

	Shed         int64 `json:"shed"`
	Retries      int64 `json:"retries"`
	BreakerTrips int64 `json:"breaker_trips"`

	Drops       int64 `json:"chaos_drops"`
	Delays      int64 `json:"chaos_delays"`
	Dups        int64 `json:"chaos_dup_deliveries"`
	RepliesLost int64 `json:"chaos_replies_lost"`

	SafetyOK bool `json:"safety_ok"`
}

// ackRecord is one acknowledged answer the drill will hold every replica
// to: the digest and archive may never differ for this query.
type ackRecord struct {
	endpoint string
	values   url.Values
	digest   string
	archive  string
}

// RunDrill runs one seeded chaos drill end to end:
//
//  1. Start a deployment of interchangeable replicas. Every fleet
//     request passes through a chaos Transport over one shared Plan
//     (Standard noise inside the horizon); replicas make no outbound
//     calls, so the client edge is the whole network.
//  2. Script a partition cutting the first replica off from every
//     client, forcing the clients that prefer it to fail over under load.
//  3. Drive a seeded client fleet through the whole window, recording
//     every acknowledged digest and flagging contradictions live.
//  4. After the network heals, ask every replica directly for every
//     acknowledged key through a clean client: each must reproduce the
//     acknowledged digest under the same archive identity.
//
// The same seed replays the same drill; the report says whether
// determinism kept interchangeable replicas in agreement under that
// schedule.
func RunDrill(cfg DrillConfig) (*DrillReport, error) {
	cfg = cfg.fill()
	if cfg.OpenBackend == nil {
		return nil, fmt.Errorf("chaos: drill needs an OpenBackend")
	}
	if cfg.Replicas < 2 {
		return nil, fmt.Errorf("chaos: a drill needs at least 2 replicas to fail over, got %d", cfg.Replicas)
	}
	log := cfg.Logger
	start := time.Now()

	reg := obs.NewRegistry()
	var rec *flight.Recorder
	var err error
	if cfg.TracePath != "" {
		rec, err = flight.Create(cfg.TracePath, flight.Options{
			Tool: "s2sserve-chaos", Registry: reg, MetricsInterval: cfg.MetricsInterval,
		})
	} else {
		rec = flight.New(io.Discard, flight.Options{
			Tool: "s2sserve-chaos", Registry: reg, MetricsInterval: cfg.MetricsInterval,
		})
	}
	if err != nil {
		return nil, err
	}
	alert.New(alert.Options{Registry: reg, Logger: log}).Attach(rec)

	plan := New(Standard(cfg.Seed, cfg.Horizon))
	plan.Instrument(reg)

	d, err := serve.StartDeployment(serve.DeployConfig{
		Replicas:     cfg.Replicas,
		OpenBackend:  cfg.OpenBackend,
		CacheEntries: cfg.CacheEntries,
		MaxInFlight:  cfg.MaxInFlight,
		Registry:     reg,
	})
	if err != nil {
		rec.Close()
		return nil, err
	}
	defer d.Close()

	// The pair universe comes straight from a backend handle, not through
	// the (chaotic) service.
	be, err := cfg.OpenBackend()
	if err != nil {
		rec.Close()
		return nil, err
	}
	keys, _ := be.Store().PairKeys()
	if len(keys) == 0 {
		rec.Close()
		return nil, fmt.Errorf("chaos: store has no indexed pairs")
	}

	// Heartbeat: advances metric snapshots so the alert engine evaluates
	// load_shed while the drill runs.
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		t := time.NewTicker(cfg.MetricsInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				rec.Event(serve.PhServeTick, time.Since(start), flight.Attrs{})
			}
		}
	}()

	// Script the outage on the fault clock: cut the first replica off from
	// every client, in both directions.
	rep := &DrillReport{Schema: "s2s-chaos-drill/2", Seed: cfg.Seed, Partitioned: d.Names[0]}
	plan.StartClock()
	cutAt := plan.Elapsed() + cfg.PartitionAfter
	clientName := func(c int) string { return fmt.Sprintf("chaos-client-%d", c) }
	for c := 0; c < cfg.Fleet; c++ {
		plan.Partition(clientName(c), rep.Partitioned, cutAt, cfg.PartitionFor)
	}
	plan.Emit(rec)
	log.Printf("drill seed %d: partitioning %s from every client at %v for %v",
		cfg.Seed, rep.Partitioned, cutAt.Round(time.Millisecond), cfg.PartitionFor)

	// Drive the fleet until both the noise horizon and the scripted
	// partition are over. Every acknowledged digest goes into the ledger;
	// a second ack for the same query with a different digest is a
	// contradiction, whoever served it.
	endAt := cfg.Horizon
	if scriptEnd := cutAt + cfg.PartitionFor; scriptEnd > endAt {
		endAt = scriptEnd
	}
	var (
		ledgerMu sync.Mutex
		ledger   = make(map[string]*ackRecord)
	)
	var fleet sync.WaitGroup
	for c := 0; c < cfg.Fleet; c++ {
		fleet.Add(1)
		go func(c int) {
			defer fleet.Done()
			cl := &serve.Client{
				Replicas: serve.Rotate(d.Names, c),
				HC:       &http.Client{Transport: NewTransport(clientName(c), plan, nil)},
				Timeout:  cfg.ClientTimeout,
				Seed:     cfg.Seed ^ int64(uint64(c+1)*0x9e3779b97f4a7c15),
			}
			// A generous schedule; the loop stops on the fault clock, not
			// on exhausting it.
			for _, q := range serve.Schedule(cfg.Seed, c, keys, 4096, 0) {
				if plan.Elapsed() >= endAt {
					break
				}
				vals := q.Values()
				asked := plan.Elapsed()
				resp, err := cl.Get("/api/"+q.Endpoint, vals)
				cut := asked >= cutAt && plan.Elapsed() < cutAt+cfg.PartitionFor
				ledgerMu.Lock()
				rep.Requests++
				if err != nil {
					rep.AckErrors++
					ledgerMu.Unlock()
					continue
				}
				rep.Acked++
				switch {
				case cut && resp.ServedBy == rep.Partitioned:
					rep.CutLeaks++
				case cut && cl.Replicas[0] == rep.Partitioned:
					rep.Failovers++
				}
				key := q.Endpoint + "?" + vals.Encode()
				if prev, ok := ledger[key]; !ok {
					ledger[key] = &ackRecord{endpoint: q.Endpoint, values: vals, digest: resp.Digest, archive: resp.Archive}
				} else if prev.digest != resp.Digest || prev.archive != resp.Archive {
					rep.Contradictions++
					log.Printf("CONTRADICTION %s: acked %s@%s then %s@%s",
						key, prev.digest, prev.archive, resp.Digest, resp.Archive)
				}
				ledgerMu.Unlock()
			}
			r, t := cl.Stats()
			ledgerMu.Lock()
			rep.Retries += r
			rep.BreakerTrips += t
			ledgerMu.Unlock()
		}(c)
	}
	fleet.Wait()
	if remaining := endAt - plan.Elapsed(); remaining > 0 {
		time.Sleep(remaining) // the network must be healed before the verdict
	}

	// Post-heal: every replica, the partitioned one included, must
	// reproduce every acknowledged answer through a clean (chaos-free)
	// client.
	for _, name := range d.Names {
		clean := &serve.Client{Replicas: []string{name}, Timeout: cfg.ClientTimeout, Seed: cfg.Seed}
		for _, key := range sortedKeys(ledger) {
			rc := ledger[key]
			resp, err := clean.Get("/api/"+rc.endpoint, rc.values)
			if err != nil {
				rep.RequeryErrors++
				log.Printf("requery %s on %s: %v", key, name, err)
				continue
			}
			if resp.Digest != rc.digest || resp.Archive != rc.archive {
				rep.Contradictions++
				log.Printf("CONTRADICTION %s: acked %s@%s, %s answers %s@%s",
					key, rc.digest, rc.archive, name, resp.Digest, resp.Archive)
			}
		}
	}

	close(hbStop)
	hbDone.Wait()

	rep.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	rep.UniqueKeys = len(ledger)
	rep.Shed = reg.Snapshot().Counters[serve.MetricShed]
	rep.Drops, rep.Delays, rep.Dups, rep.RepliesLost = plan.Totals()
	rep.SafetyOK = rep.Contradictions == 0 && rep.RequeryErrors == 0

	if cfg.TracePath != "" {
		rec.WriteManifest(flight.Manifest{Tool: "s2sserve-chaos"})
	}
	if err := rec.Close(); err != nil {
		return rep, err
	}
	return rep, nil
}

// sortedKeys fixes the requery order so two same-seed drills replay the
// verification phase identically.
func sortedKeys(m map[string]*ackRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
