package alert

import (
	"fmt"
	"time"

	"repro/internal/obs/flight"
)

// Metric families the standard rules read. Kept as local constants (rather
// than importing internal/campaign and internal/simnet) so the alert layer
// stays leaf-level: the families are part of the exposition contract
// pinned by the metrics-smoke CI step and TestStandardRuleFamilies.
const (
	famTasks           = "s2s_engine_tasks_total"
	famAbandonedTasks  = "s2s_campaign_abandoned_tasks_total"
	famRetriesAttempt  = "s2s_campaign_retries_attempted_total"
	famQuarantineAdds  = "s2s_campaign_quarantine_adds_total"
	famSinkWriteErrors = "s2s_sink_write_errors_total"
	famCacheHits       = "s2s_simnet_path_cache_hits_total"
	famCacheMisses     = "s2s_simnet_path_cache_misses_total"
	famFindings        = "s2s_analysis_findings_total"
	famServeCacheHits  = "s2s_serve_cache_hits_total"
	famServeCacheMiss  = "s2s_serve_cache_misses_total"
	famServeShed       = "s2s_serve_shed_total"
)

// Config holds the thresholds of the standard rules.
type Config struct {
	// StallFraction: round_stall fires when the watchdog abandoned more
	// than this fraction of the interval's tasks.
	StallFraction float64
	// RetryFraction: retry_storm fires when retries attempted per task
	// executed in the interval exceeds this.
	RetryFraction float64
	// QuarantineFraction: quarantine_storm fires when pairs quarantined
	// per task executed in the interval exceeds this.
	QuarantineFraction float64
	// CheckpointStaleIntervals: checkpoint_stale fires when a
	// checkpointing run goes this many metric intervals without one.
	CheckpointStaleIntervals int
	// CacheHitFloor and CacheMinLookups: cache_collapse fires when the
	// interval's path-cache hit rate drops below the floor with at least
	// CacheMinLookups lookups (quiet intervals can't collapse).
	CacheHitFloor   float64
	CacheMinLookups int64
	// HeapWindow and HeapMinGrowth: heap_growth fires when the live heap
	// grew monotonically across HeapWindow consecutive intervals by at
	// least HeapMinGrowth bytes in total.
	HeapWindow    int
	HeapMinGrowth uint64
	// FindingFraction: finding_surge fires when the streaming-analysis
	// operators emit more findings per executed task than this in one
	// interval — the observed network is churning far above baseline.
	FindingFraction float64
	// ServeCacheHitFloor and ServeCacheMinLookups: serve_cache_collapse
	// fires when the query service's hot-pair cache hit rate drops below
	// the floor with at least that many lookups in the interval.
	ServeCacheHitFloor   float64
	ServeCacheMinLookups int64
	// ShedMin: load_shed fires when admission control shed at least this
	// many queries in one interval.
	ShedMin int64
}

// DefaultConfig returns the standard thresholds.
func DefaultConfig() Config {
	return Config{
		StallFraction:            0.10,
		RetryFraction:            0.25,
		QuarantineFraction:       0.05,
		CheckpointStaleIntervals: 3,
		CacheHitFloor:            0.50,
		CacheMinLookups:          1000,
		HeapWindow:               6,
		HeapMinGrowth:            512 << 20,
		FindingFraction:          0.10,
		ServeCacheHitFloor:       0.20,
		ServeCacheMinLookups:     200,
		ShedMin:                  10,
	}
}

// fill replaces zero fields with defaults, so callers can override just
// the thresholds they care about.
func (c Config) fill() Config {
	d := DefaultConfig()
	if c.StallFraction == 0 {
		c.StallFraction = d.StallFraction
	}
	if c.RetryFraction == 0 {
		c.RetryFraction = d.RetryFraction
	}
	if c.QuarantineFraction == 0 {
		c.QuarantineFraction = d.QuarantineFraction
	}
	if c.CheckpointStaleIntervals == 0 {
		c.CheckpointStaleIntervals = d.CheckpointStaleIntervals
	}
	if c.CacheHitFloor == 0 {
		c.CacheHitFloor = d.CacheHitFloor
	}
	if c.CacheMinLookups == 0 {
		c.CacheMinLookups = d.CacheMinLookups
	}
	if c.HeapWindow == 0 {
		c.HeapWindow = d.HeapWindow
	}
	if c.HeapMinGrowth == 0 {
		c.HeapMinGrowth = d.HeapMinGrowth
	}
	if c.FindingFraction == 0 {
		c.FindingFraction = d.FindingFraction
	}
	if c.ServeCacheHitFloor == 0 {
		c.ServeCacheHitFloor = d.ServeCacheHitFloor
	}
	if c.ServeCacheMinLookups == 0 {
		c.ServeCacheMinLookups = d.ServeCacheMinLookups
	}
	if c.ShedMin == 0 {
		c.ShedMin = d.ShedMin
	}
	return c
}

// StandardRules builds the standard rules with the given thresholds. The
// returned rules carry private state (edge windows, last-checkpoint
// tracking) and must be given to exactly one Engine.
func StandardRules(cfg Config) []Rule {
	cfg = cfg.fill()
	return []Rule{
		roundStall(cfg),
		retryStorm(cfg),
		quarantineStorm(cfg),
		sinkError(),
		checkpointStale(cfg),
		cacheCollapse(cfg),
		heapGrowth(cfg),
		findingSurge(cfg),
		serveCacheCollapse(cfg),
		loadShed(cfg),
	}
}

// roundStall: the wall-clock watchdog abandoned a significant fraction of
// the interval's tasks — workers are wedged or starved.
func roundStall(cfg Config) Rule {
	return Rule{
		Name: "round_stall", Severity: Warn, WallClock: true,
		Check: func(s *Sample) (string, bool) {
			tasks := s.DeltaCounter(famTasks)
			if tasks <= 0 {
				return "", false
			}
			abandoned := s.DeltaCounter(famAbandonedTasks)
			f := float64(abandoned) / float64(tasks)
			return fmt.Sprintf("watchdog abandoned %d/%d tasks (%.0f%%) this interval",
				abandoned, tasks, f*100), f > cfg.StallFraction
		},
	}
}

// retryStorm: retries per executed task spiked — widespread transient
// failure (fault wave, overload) rather than the odd flaky pair.
func retryStorm(cfg Config) Rule {
	return Rule{
		Name: "retry_storm", Severity: Warn,
		Check: func(s *Sample) (string, bool) {
			tasks := s.DeltaCounter(famTasks)
			if tasks <= 0 {
				return "", false
			}
			retries := s.DeltaCounter(famRetriesAttempt)
			f := float64(retries) / float64(tasks)
			return fmt.Sprintf("%.2f retries per task (%d retries / %d tasks) this interval",
				f, retries, tasks), f > cfg.RetryFraction
		},
	}
}

// quarantineStorm: pairs entering quarantine per executed task spiked —
// persistent failures are spreading faster than re-probes release them.
func quarantineStorm(cfg Config) Rule {
	return Rule{
		Name: "quarantine_storm", Severity: Warn,
		Check: func(s *Sample) (string, bool) {
			tasks := s.DeltaCounter(famTasks)
			if tasks <= 0 {
				return "", false
			}
			adds := s.DeltaCounter(famQuarantineAdds)
			f := float64(adds) / float64(tasks)
			return fmt.Sprintf("%d pairs quarantined against %d tasks this interval",
				adds, tasks), f > cfg.QuarantineFraction
		},
	}
}

// sinkError: the dataset sink reported a write error. Critical and sticky —
// the error counter never decreases, so this fires once and stays active.
func sinkError() Rule {
	var lastText string
	return Rule{
		Name: "sink_error", Severity: Crit,
		Check: func(s *Sample) (string, bool) {
			for _, ev := range s.Events {
				if ev.Ph == flight.PhSinkError && ev.S != "" {
					lastText = ev.S
				}
			}
			n := s.Counter(famSinkWriteErrors)
			if n == 0 {
				return "", false
			}
			detail := fmt.Sprintf("%d dataset sink write errors", n)
			if lastText != "" {
				detail += ": " + lastText
			}
			return detail, true
		},
	}
}

// checkpointStale: a run that has written (or resumed from) a checkpoint
// stopped writing them — a crash now would replay much more than the
// configured interval.
func checkpointStale(cfg Config) Rule {
	last := time.Duration(-1)
	return Rule{
		Name: "checkpoint_stale", Severity: Warn,
		Check: func(s *Sample) (string, bool) {
			for _, ev := range s.Events {
				if ev.Ph == flight.PhCheckpoint || ev.Ph == flight.PhResume {
					last = time.Duration(ev.VT)
				}
			}
			if last < 0 {
				return "", false // never checkpointed: not a checkpointing run
			}
			stale := s.VT - last
			limit := time.Duration(cfg.CheckpointStaleIntervals) * s.Interval
			return fmt.Sprintf("no checkpoint for %s of virtual time (limit %s)",
				stale, limit), stale > limit
		},
	}
}

// cacheCollapse: the simnet path cache stopped hitting — epoch churn is
// outpacing reuse or the cache bound is too tight for the mesh.
func cacheCollapse(cfg Config) Rule {
	return Rule{
		Name: "cache_collapse", Severity: Warn,
		Check: func(s *Sample) (string, bool) {
			hits := s.DeltaCounter(famCacheHits)
			misses := s.DeltaCounter(famCacheMisses)
			total := hits + misses
			if total < cfg.CacheMinLookups {
				return "", false
			}
			rate := float64(hits) / float64(total)
			return fmt.Sprintf("path-cache hit rate %.0f%% over %d lookups this interval",
				rate*100, total), rate < cfg.CacheHitFloor
		},
	}
}

// findingSurge: the streaming-analysis operators are emitting findings at
// a rate far above baseline — the observed network is churning (or a
// detector threshold is badly tuned). Inert without `-analyze`: the
// findings family never moves, so the rule never fires.
func findingSurge(cfg Config) Rule {
	return Rule{
		Name: "finding_surge", Severity: Warn,
		Check: func(s *Sample) (string, bool) {
			tasks := s.DeltaCounter(famTasks)
			if tasks <= 0 {
				return "", false
			}
			findings := s.DeltaCounter(famFindings)
			f := float64(findings) / float64(tasks)
			return fmt.Sprintf("%d analysis findings against %d tasks this interval",
				findings, tasks), f > cfg.FindingFraction
		},
	}
}

// serveCacheCollapse: the query service's hot-pair cache stopped hitting —
// the working set outgrew the cache bound (or the request population
// stopped being zipfian) and every query is paying a store read.
func serveCacheCollapse(cfg Config) Rule {
	return Rule{
		Name: "serve_cache_collapse", Severity: Warn, WallClock: true,
		Check: func(s *Sample) (string, bool) {
			hits := s.DeltaCounter(famServeCacheHits)
			misses := s.DeltaCounter(famServeCacheMiss)
			total := hits + misses
			if total < cfg.ServeCacheMinLookups {
				return "", false
			}
			rate := float64(hits) / float64(total)
			return fmt.Sprintf("hot-pair cache hit rate %.0f%% over %d lookups this interval",
				rate*100, total), rate < cfg.ServeCacheHitFloor
		},
	}
}

// loadShed: the query service's admission control is refusing work —
// the offered load exceeds what MaxInFlight queries can absorb, and
// clients are seeing 503s. Degradation is working as designed, but the
// operator should know it is happening. Inert outside the query
// service. Wall clock, like everything in the serving path.
func loadShed(cfg Config) Rule {
	return Rule{
		Name: "load_shed", Severity: Warn, WallClock: true,
		Check: func(s *Sample) (string, bool) {
			shed := s.DeltaCounter(famServeShed)
			return fmt.Sprintf("admission control shed %d queries this interval (limit %d)",
				shed, cfg.ShedMin), shed >= cfg.ShedMin
		},
	}
}

// heapGrowth: the live heap grew monotonically across the whole window —
// the signature of a leak rather than a working-set plateau.
func heapGrowth(cfg Config) Rule {
	var window []uint64
	return Rule{
		Name: "heap_growth", Severity: Warn, WallClock: true,
		Check: func(s *Sample) (string, bool) {
			window = append(window, s.HeapBytes)
			if len(window) > cfg.HeapWindow+1 {
				window = window[1:]
			}
			if len(window) < cfg.HeapWindow+1 {
				return "", false
			}
			for i := 1; i < len(window); i++ {
				if window[i] <= window[i-1] {
					return "", false
				}
			}
			growth := window[len(window)-1] - window[0]
			return fmt.Sprintf("heap grew %d MiB over %d consecutive intervals",
				growth>>20, cfg.HeapWindow), growth >= cfg.HeapMinGrowth
		},
	}
}
