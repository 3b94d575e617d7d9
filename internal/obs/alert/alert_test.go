package alert

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// fakeHealth counts transitions per rule.
type fakeHealth struct {
	mu     sync.Mutex
	sets   map[string]int
	clears map[string]int
	active map[string]string
}

func newFakeHealth() *fakeHealth {
	return &fakeHealth{sets: map[string]int{}, clears: map[string]int{}, active: map[string]string{}}
}

func (h *fakeHealth) SetReason(rule, detail string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sets[rule]++
	h.active[rule] = detail
}

func (h *fakeHealth) ClearReason(rule string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clears[rule]++
	delete(h.active, rule)
}

// newEngine builds an engine over a fresh registry with the given rules,
// a capturing health, and a steady fake heap.
func newEngine(t *testing.T, cfg Config) (*Engine, *obs.Registry, *fakeHealth) {
	t.Helper()
	reg := obs.NewRegistry()
	h := newFakeHealth()
	e := New(Options{
		Registry: reg,
		Health:   h,
		Rules:    StandardRules(cfg),
		Interval: time.Hour,
		Heap:     func() uint64 { return 1 << 20 },
	})
	return e, reg, h
}

// TestRetryStormEpisode: a storm that persists across boundaries fires
// exactly once, and resolves exactly once when it subsides.
func TestRetryStormEpisode(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	tasks := reg.Counter(famTasks, "")
	retries := reg.Counter(famRetriesAttempt, "")

	tasks.Add(1000) // boundary 1: quiet
	e.EvalBoundary(1 * time.Hour)
	tasks.Add(1000) // boundaries 2,3: storming (0.5 retries/task)
	retries.Add(500)
	e.EvalBoundary(2 * time.Hour)
	tasks.Add(1000)
	retries.Add(500)
	e.EvalBoundary(3 * time.Hour)
	tasks.Add(1000) // boundary 4: subsided
	e.EvalBoundary(4 * time.Hour)

	if got := h.sets["retry_storm"]; got != 1 {
		t.Fatalf("retry_storm fired %d times, want exactly 1", got)
	}
	if got := h.clears["retry_storm"]; got != 1 {
		t.Fatalf("retry_storm resolved %d times, want exactly 1", got)
	}
}

// TestRoundStallEpisode: watchdog-abandoned fraction over threshold fires
// once per episode; two separate episodes fire twice.
func TestRoundStallEpisode(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	tasks := reg.Counter(famTasks, "")
	abandoned := reg.Counter(famAbandonedTasks, "")

	episode := func(stalled bool) {
		tasks.Add(1000)
		if stalled {
			abandoned.Add(200) // 20% > 10% threshold
		}
	}
	vt := time.Duration(0)
	for _, stalled := range []bool{false, true, true, false, true, false} {
		episode(stalled)
		vt += time.Hour
		e.EvalBoundary(vt)
	}
	if got := h.sets["round_stall"]; got != 2 {
		t.Fatalf("round_stall fired %d times, want 2 (two episodes)", got)
	}
	if got := h.clears["round_stall"]; got != 2 {
		t.Fatalf("round_stall resolved %d times, want 2", got)
	}
}

// TestCheckpointStaleEpisode: a run that checkpointed once, then stopped,
// fires after CheckpointStaleIntervals intervals — and resolves when
// checkpoints resume. A run that never checkpointed never fires.
func TestCheckpointStaleEpisode(t *testing.T) {
	e, reg, h := newEngine(t, Config{CheckpointStaleIntervals: 3})
	tasks := reg.Counter(famTasks, "")

	ckpt := func(vt time.Duration) {
		e.Ingest(&flight.Record{K: flight.KEvent, Ph: flight.PhCheckpoint, VT: int64(vt)})
	}
	tasks.Add(10)
	ckpt(30 * time.Minute)
	for hrs := 1; hrs <= 3; hrs++ { // stale 0.5h..2.5h, limit 3h: quiet
		e.EvalBoundary(time.Duration(hrs) * time.Hour)
	}
	if len(h.active) != 0 {
		t.Fatalf("stale fired early: %v", h.active)
	}
	e.EvalBoundary(4 * time.Hour) // stale 3.5h > 3h: fires
	if got := h.sets["checkpoint_stale"]; got != 1 {
		t.Fatalf("checkpoint_stale fired %d times, want 1", got)
	}
	e.EvalBoundary(5 * time.Hour) // still stale: no re-fire
	if got := h.sets["checkpoint_stale"]; got != 1 {
		t.Fatalf("checkpoint_stale re-fired while active (%d sets)", got)
	}
	ckpt(5*time.Hour + 30*time.Minute)
	e.EvalBoundary(6 * time.Hour) // fresh checkpoint: resolves
	if got := h.clears["checkpoint_stale"]; got != 1 {
		t.Fatalf("checkpoint_stale resolved %d times, want 1", got)
	}

	// A run with no checkpoints at all stays quiet forever.
	e2, _, h2 := newEngine(t, Config{CheckpointStaleIntervals: 3})
	for hrs := 1; hrs <= 10; hrs++ {
		e2.EvalBoundary(time.Duration(hrs) * time.Hour)
	}
	if got := h2.sets["checkpoint_stale"]; got != 0 {
		t.Fatalf("checkpoint_stale fired on a non-checkpointing run")
	}
}

// TestSinkErrorSticky: sink errors fire critically once and never resolve,
// carrying the error text from the flight event.
func TestSinkErrorSticky(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	errs := reg.Counter(famSinkWriteErrors, "")

	e.EvalBoundary(1 * time.Hour)
	errs.Inc()
	e.Ingest(&flight.Record{K: flight.KEvent, Ph: flight.PhSinkError, S: "disk full"})
	e.EvalBoundary(2 * time.Hour)
	e.EvalBoundary(3 * time.Hour)
	e.EvalBoundary(4 * time.Hour)

	if got := h.sets["sink_error"]; got != 1 {
		t.Fatalf("sink_error fired %d times, want exactly 1", got)
	}
	if got := h.clears["sink_error"]; got != 0 {
		t.Fatalf("sink_error resolved (%d clears); must be sticky", got)
	}
	if detail := h.active["sink_error"]; !strings.Contains(detail, "disk full") {
		t.Fatalf("sink_error detail %q missing event text", detail)
	}
}

// TestCacheCollapse: low hit rate fires only with enough lookups.
func TestCacheCollapse(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	hits := reg.Counter(famCacheHits, "")
	misses := reg.Counter(famCacheMisses, "")

	hits.Add(10) // tiny interval: 10% hit rate but only 100 lookups
	misses.Add(90)
	e.EvalBoundary(1 * time.Hour)
	if len(h.sets) != 0 {
		t.Fatalf("cache_collapse fired under min lookups: %v", h.sets)
	}
	hits.Add(100) // 10% over 1000 lookups: fires
	misses.Add(900)
	e.EvalBoundary(2 * time.Hour)
	if got := h.sets["cache_collapse"]; got != 1 {
		t.Fatalf("cache_collapse fired %d times, want 1", got)
	}
	hits.Add(900) // healthy again: resolves
	misses.Add(100)
	e.EvalBoundary(3 * time.Hour)
	if got := h.clears["cache_collapse"]; got != 1 {
		t.Fatalf("cache_collapse resolved %d times, want 1", got)
	}
}

// TestHeapGrowth: only a full window of monotonic growth above the
// threshold fires; a single dip resets the episode.
func TestHeapGrowth(t *testing.T) {
	reg := obs.NewRegistry()
	h := newFakeHealth()
	heap := uint64(0)
	e := New(Options{
		Registry: reg,
		Health:   h,
		Rules:    StandardRules(Config{HeapWindow: 3, HeapMinGrowth: 300}),
		Interval: time.Hour,
		Heap:     func() uint64 { return heap },
	})
	vt := time.Duration(0)
	step := func(v uint64) {
		heap = v
		vt += time.Hour
		e.EvalBoundary(vt)
	}
	step(100)
	step(200)
	step(150) // dip: window resets
	step(250)
	step(350)
	if len(h.sets) != 0 {
		t.Fatalf("heap_growth fired without a full monotonic window: %v", h.sets)
	}
	step(460) // 4th consecutive growth point: 150→460 = 310 >= 300
	if got := h.sets["heap_growth"]; got != 1 {
		t.Fatalf("heap_growth fired %d times, want 1", got)
	}
	step(400) // dip: resolves
	if got := h.clears["heap_growth"]; got != 1 {
		t.Fatalf("heap_growth resolved %d times, want 1", got)
	}
}

// TestAttachedEngineEmitsAlertEvents: wired to a real recorder, a firing
// rule lands as a typed alert event in the flight stream and resolves with
// n=0 — and the engine's own alert events are not re-ingested.
func TestAttachedEngineEmitsAlertEvents(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	rec := flight.New(&buf, flight.Options{
		Tool: "alert-test", Registry: reg, MetricsInterval: time.Hour,
	})
	h := newFakeHealth()
	e := New(Options{
		Registry: reg,
		Health:   h,
		Rules:    StandardRules(Config{}),
		Heap:     func() uint64 { return 1 << 20 },
	})
	e.Attach(rec)

	tasks := reg.Counter(famTasks, "")
	retries := reg.Counter(famRetriesAttempt, "")
	tasks.Add(100)
	retries.Add(90)
	rec.Advance(1 * time.Hour) // boundary 1: fires
	tasks.Add(100)
	rec.Advance(2 * time.Hour) // boundary 2: resolves
	rec.Close()

	out := buf.String()
	firing := strings.Count(out, `"ph":"alert"`)
	if firing != 2 {
		t.Fatalf("want 2 alert events (fire + resolve), got %d\n%s", firing, out)
	}
	if !strings.Contains(out, `"s":"retry_storm"`) {
		t.Fatalf("alert event missing rule name:\n%s", out)
	}
	idx1 := strings.Index(out, `"ph":"alert"`)
	idx2 := strings.LastIndex(out, `"ph":"alert"`)
	line1 := out[idx1 : strings.Index(out[idx1:], "\n")+idx1]
	line2 := out[idx2 : strings.Index(out[idx2:], "\n")+idx2]
	if !strings.Contains(line1, `"n":1`) {
		t.Fatalf("first alert event is not a firing (n=1): %s", line1)
	}
	if strings.Contains(line2, `"n":1`) {
		t.Fatalf("second alert event is not a resolve (n=0): %s", line2)
	}
	if got := h.sets["retry_storm"]; got != 1 {
		t.Fatalf("retry_storm fired %d times through recorder, want 1", got)
	}
}

// TestServeCacheCollapseRule: a hit rate under the floor fires only once
// the lookup volume is meaningful.
func TestServeCacheCollapseRule(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	hits := reg.Counter(famServeCacheHits, "")
	misses := reg.Counter(famServeCacheMiss, "")

	misses.Add(50) // all misses, but under the volume gate: quiet
	e.EvalBoundary(1 * time.Hour)
	if len(h.active) != 0 {
		t.Fatalf("collapse fired under the lookup gate: %v", h.active)
	}
	hits.Add(10) // 10/510 ≈ 2% hit rate over 500+ lookups: fires
	misses.Add(500)
	e.EvalBoundary(2 * time.Hour)
	if got := h.sets["serve_cache_collapse"]; got != 1 {
		t.Fatalf("serve_cache_collapse fired %d times, want 1", got)
	}
	hits.Add(400) // healthy again
	misses.Add(100)
	e.EvalBoundary(3 * time.Hour)
	if got := h.clears["serve_cache_collapse"]; got != 1 {
		t.Fatalf("serve_cache_collapse resolved %d times, want 1", got)
	}
}

// TestLoadShedRule: an interval's worth of admission-control refusals
// fires once and resolves when the overload subsides.
func TestLoadShedRule(t *testing.T) {
	e, reg, h := newEngine(t, Config{})
	shed := reg.Counter(famServeShed, "")

	shed.Add(5) // under the threshold: quiet
	e.EvalBoundary(1 * time.Hour)
	if len(h.active) != 0 {
		t.Fatalf("load_shed fired under threshold: %v", h.active)
	}
	shed.Add(40) // overload: fires
	e.EvalBoundary(2 * time.Hour)
	if got := h.sets["load_shed"]; got != 1 {
		t.Fatalf("load_shed fired %d times, want 1", got)
	}
	e.EvalBoundary(3 * time.Hour) // no sheds this interval: resolves
	if got := h.clears["load_shed"]; got != 1 {
		t.Fatalf("load_shed resolved %d times, want 1", got)
	}
}

// TestStandardRuleFamilies pins the metric families the rules read to the
// constants the instrumented packages actually export, so a rename there
// breaks this test instead of silently muting an alert.
func TestStandardRuleFamilies(t *testing.T) {
	pairs := map[string]string{
		famTasks:           campaign.MetricTasks,
		famAbandonedTasks:  campaign.MetricAbandonedTasks,
		famRetriesAttempt:  campaign.MetricRetriesAttempted,
		famQuarantineAdds:  campaign.MetricQuarantineAdds,
		famSinkWriteErrors: campaign.MetricSinkWriteErrors,
		famCacheHits:       simnet.MetricCacheHits,
		famCacheMisses:     simnet.MetricCacheMisses,
		famFindings:        analysis.MetricFindings,
		famServeCacheHits:  serve.MetricCacheHits,
		famServeCacheMiss:  serve.MetricCacheMisses,
		famServeShed:       serve.MetricShed,
	}
	for local, canonical := range pairs {
		if local != canonical {
			t.Errorf("alert family %q != instrumented constant %q", local, canonical)
		}
	}
}
