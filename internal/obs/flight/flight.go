// Package flight is the run flight recorder: a low-overhead execution
// tracing layer that records typed spans and events — campaign rounds,
// engine worker batches, BGP epoch rebuilds, probe batches, path-cache
// sweeps — to a streaming JSONL file, stamped with both monotonic wall
// time and the campaign's virtual clock.
//
// On top of the span stream the recorder periodically appends
// delta-compressed snapshots of an obs.Registry, keyed to virtual-time
// boundaries (typically virtual days), so every metric becomes a time
// series instead of a single end-of-run number. A final run manifest
// (tool, flags, seed, Go version, topology digest, record counts, final
// metrics) makes two runs diffable by `s2sobs diff`.
//
// The design rules mirror internal/obs:
//
//   - Optional: every method is a nil-receiver no-op, so an untraced run
//     pays one predicted branch per potential span.
//   - Observation only: the recorder writes to its own file and never
//     produces a value the simulation reads, so a traced campaign emits a
//     byte-identical record stream to an untraced one (asserted by
//     TestTraceDoesNotPerturbRecords).
//   - Coarse-grained: spans wrap rounds, worker batches, and epoch
//     rebuilds — never individual measurements. Per-measurement subsystems
//     (probe) coalesce into batch events.
package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Version is the flight-record format version, written in the meta line.
const Version = 1

// Record kinds (the "k" field of every line).
const (
	KMeta     = "meta"     // first line: format version, tool, snapshot interval
	KSpan     = "span"     // a timed phase: t = start offset, d = duration
	KEvent    = "ev"       // a point event
	KSnap     = "snap"     // delta-compressed registry snapshot at a virtual boundary
	KManifest = "manifest" // last line: the run manifest
)

// Standard span/event phases (the "ph" field). CLIs may add their own;
// these are the ones the instrumented subsystems emit and s2sobs knows how
// to interpret specially.
const (
	PhCampaign   = "campaign"       // span: one whole campaign; s = campaign kind, n = rounds
	PhRound      = "round"          // span: one engine round; n = tasks, vt = round timestamp
	PhWorker     = "worker"         // span: one worker's batch within a round; id = worker, n = tasks
	PhEngine     = "engine"         // event: engine pool came up; n = worker count
	PhEpochBuild = "epoch_build"    // span: BGP routing-view build; id = epoch, n = trees carried, m = delta events, s = plane
	PhCacheSweep = "cache_sweep"    // event: path-cache shard sweep; id = shard, n = stale drops, m = full-reset evictions, s = family
	PhProbeBatch = "probe_batch"    // event: probe measurement batch milestone; n = cumulative measurements
	PhShardScan  = "shard_scan"     // span: one store shard read (a scan's decode or a pair read's seek); s = shard file, n = records delivered, m = bytes read
	PhFault      = "fault"          // event: one scheduled fault window; vt = start, id = target, n = length ns, s = fault kind
	PhDegraded   = "round_degraded" // event: round booked degraded results; n = agent-down tasks, m = watchdog-abandoned tasks
	PhQuarantine = "quarantine"     // event: pair quarantine transition; n = src cluster, m = dst cluster, s = "add"/"release"
	PhCheckpoint = "checkpoint"     // event: campaign checkpoint written; vt = resume point, n = records, m = sink position
	PhResume     = "resume"         // event: campaign resumed from a checkpoint; vt = resume point, n = rounds already done
	PhSinkError  = "sink_error"     // event: first dataset-sink write failure; s = error text
	PhAlert      = "alert"          // event: alert-rule transition; s = rule, id = severity (0 warn, 1 crit), n = 1 firing / 0 resolved

	// Streaming-analysis event families (internal/analysis). Both are
	// emitted via Announce so attaching operators never perturbs the
	// snapshot clock of the run they observe.
	PhFinding         = "finding"          // event: one analysis finding; vt = finding time, s = analysis name (+ "_v6"), n = src cluster, m = dst cluster, id = magnitude
	PhAnalysisPartial = "analysis_partial" // event: windowed partial-result snapshot of one operator at a virtual-day flush; vt = day boundary, s = analysis name, n = pairs covered, m = findings so far, id = windows evaluated
)

// Attrs are the optional attributes of a span or event. Zero-valued
// fields are omitted from the encoded line; the decoded zero value is
// indistinguishable from "absent" by design (all attributes default to 0).
type Attrs struct {
	ID int64  // generic identifier: worker, shard, or epoch index
	N  int64  // primary count (tasks, trees carried, entries dropped, ...)
	M  int64  // secondary count (delta events, evictions, ...)
	S  string // string attribute (campaign kind, plane, family, ...)
}

// Record is one flight-record line. A single struct covers every kind so
// the schema round-trips losslessly through encoding/json (see the fuzz
// and golden tests, which pin the format for s2sobs).
type Record struct {
	K string `json:"k"`
	// Meta fields.
	V    int    `json:"v,omitempty"`    // format version
	Tool string `json:"tool,omitempty"` // emitting command
	IV   int64  `json:"iv,omitempty"`   // snapshot interval, virtual ns
	// Span/event fields.
	Ph string `json:"ph,omitempty"` // phase
	T  int64  `json:"t,omitempty"`  // wall-clock offset from recorder start, ns
	D  int64  `json:"d,omitempty"`  // duration, ns (spans only)
	VT int64  `json:"vt,omitempty"` // virtual-clock position, ns
	ID int64  `json:"id,omitempty"`
	N  int64  `json:"n,omitempty"`
	M  int64  `json:"m,omitempty"`
	S  string `json:"s,omitempty"`
	// Snapshot payload: counter deltas, absolute gauges, histogram
	// [count delta, sum delta] since the previous snapshot.
	C map[string]int64      `json:"c,omitempty"`
	G map[string]float64    `json:"g,omitempty"`
	H map[string][2]float64 `json:"h,omitempty"`
	// Manifest payload.
	Man *Manifest `json:"manifest,omitempty"`
}

// Manifest identifies a run well enough to reproduce and to diff it.
type Manifest struct {
	Tool       string                `json:"tool"`
	Go         string                `json:"go,omitempty"`
	Seed       int64                 `json:"seed"`
	Flags      map[string]string     `json:"flags,omitempty"`
	TopoDigest string                `json:"topo_digest,omitempty"`
	Records    int64                 `json:"records,omitempty"`
	WallNS     int64                 `json:"wall_ns,omitempty"`
	Counters   map[string]int64      `json:"counters,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string][2]float64 `json:"histograms,omitempty"` // [count, sum]
}

// Options configure a Recorder.
type Options struct {
	// Tool names the emitting command in the meta line.
	Tool string
	// Registry, with MetricsInterval, enables periodic metric snapshots.
	Registry *obs.Registry
	// MetricsInterval is the virtual time between registry snapshots
	// (e.g. 24h = one snapshot per virtual day). 0 disables snapshots.
	MetricsInterval time.Duration
	// Clock overrides time.Now (test hook for deterministic traces).
	Clock func() time.Time
}

// Recorder streams flight records to a writer. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
//
// Besides the file stream, a live recorder can be tapped three ways, all
// observation-only (none of them can slow or change the record file):
//
//   - Subscribe tees every encoded line to a channel — the transport
//     behind the ops server's /flight/tail endpoint. Slow subscribers
//     lose lines rather than stalling the run.
//   - Observe delivers every record, decoded, to a callback — how the
//     alert engine watches checkpoint and sink events.
//   - OnBoundary fires a callback at every metrics-interval boundary the
//     virtual clock crosses (even when the interval's delta snapshot was
//     empty and skipped) — the alert engine's evaluation clock.
//
// Observer and boundary callbacks run outside the recorder's lock, so
// they may themselves emit records (the alert engine writes alert events
// from inside its boundary callback).
type Recorder struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	file   io.Closer
	buf    bytes.Buffer  // encode scratch; one line at a time
	enc    *json.Encoder // encodes into buf
	now    func() time.Time
	start  time.Time
	reg    *obs.Registry
	iv     int64
	next   atomic.Int64 // next snapshot boundary, virtual ns
	last   *obs.Snapshot
	err    error
	closed bool

	// Live taps. metaLine replays the header to late subscribers.
	metaLine    []byte
	subs        map[int]chan []byte
	subID       int
	observers   []func(*Record)
	boundaryFns []func(time.Duration)
	// pending holds callback work queued under the lock, dispatched by the
	// public entry points after releasing it.
	pending []pendingCallback
}

// pendingCallback is one deferred observer notification: a written record
// or a crossed snapshot boundary.
type pendingCallback struct {
	rec      *Record
	boundary int64
}

// New returns a Recorder streaming to w and writes the meta line.
func New(w io.Writer, o Options) *Recorder {
	now := o.Clock
	if now == nil {
		now = time.Now
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	r := &Recorder{
		bw:  bw,
		now: now,
		reg: o.Registry,
		iv:  int64(o.MetricsInterval),
	}
	r.enc = json.NewEncoder(&r.buf)
	r.start = r.now()
	if r.iv > 0 {
		r.next.Store(r.iv)
	}
	r.writeLocked(&Record{K: KMeta, V: Version, Tool: o.Tool, IV: r.iv})
	return r
}

// Create opens path for writing and returns a Recorder over it. Close
// flushes and closes the file.
func Create(path string, o Options) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := New(f, o)
	r.file = f
	return r, nil
}

// Enabled reports whether the recorder is live (false on nil), for callers
// that guard non-trivial attribute computation.
func (r *Recorder) Enabled() bool { return r != nil }

// Interval returns the configured snapshot interval (0 when snapshots are
// disabled or the recorder is nil).
func (r *Recorder) Interval() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.iv)
}

// Span is an in-flight timed phase. The zero Span (from a nil Recorder)
// is inert: End is a no-op.
type Span struct {
	r  *Recorder
	ph string
	vt int64
	t0 time.Time
}

// Begin starts a span of the given phase at virtual time vt. On a nil
// receiver it returns an inert Span at the cost of one predicted branch.
func (r *Recorder) Begin(ph string, vt time.Duration) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, ph: ph, vt: int64(vt), t0: r.now()}
}

// End closes the span and writes it with the given attributes.
func (s Span) End(a Attrs) {
	if s.r == nil {
		return
	}
	end := s.r.now()
	s.r.emit(&Record{
		K: KSpan, Ph: s.ph,
		T: s.t0.Sub(s.r.start).Nanoseconds(), D: end.Sub(s.t0).Nanoseconds(),
		VT: s.vt, ID: a.ID, N: a.N, M: a.M, S: a.S,
	})
}

// Event writes a point event at virtual time vt.
func (r *Recorder) Event(ph string, vt time.Duration, a Attrs) {
	if r == nil {
		return
	}
	r.emit(&Record{
		K: KEvent, Ph: ph,
		T:  r.now().Sub(r.start).Nanoseconds(),
		VT: int64(vt), ID: a.ID, N: a.N, M: a.M, S: a.S,
	})
}

// Announce writes a point event describing a future virtual time without
// advancing the snapshot clock. Schedule announcements — a fault plan
// emitted at run start, say — declare what will happen rather than report
// that the clock got there, so they must not consume metric-snapshot
// boundaries the way Event's vt does. On disk the line is identical to an
// Event's.
func (r *Recorder) Announce(ph string, vt time.Duration, a Attrs) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.writeLocked(&Record{
		K: KEvent, Ph: ph,
		T:  r.now().Sub(r.start).Nanoseconds(),
		VT: int64(vt), ID: a.ID, N: a.N, M: a.M, S: a.S,
	})
	r.mu.Unlock()
	r.dispatch()
}

// Advance tells the recorder the virtual clock reached vt without emitting
// a span, flushing any metric snapshots whose boundary passed. Callers on
// tight loops (e.g. a dataset reader walking record timestamps) can call
// it per item: before the next boundary it is one atomic load.
func (r *Recorder) Advance(vt time.Duration) {
	if r == nil || r.reg == nil || r.iv <= 0 {
		return
	}
	if int64(vt) < r.next.Load() {
		return
	}
	r.mu.Lock()
	r.snapUpToLocked(int64(vt))
	r.mu.Unlock()
	r.dispatch()
}

// WriteManifest completes m (Go version, wall time, final metrics from the
// registry) and writes it. Call once, just before Close.
func (r *Recorder) WriteManifest(m Manifest) {
	if r == nil {
		return
	}
	if m.Go == "" {
		m.Go = runtime.Version()
	}
	r.mu.Lock()
	if m.WallNS == 0 {
		m.WallNS = r.now().Sub(r.start).Nanoseconds()
	}
	if r.reg != nil {
		s := r.reg.Snapshot()
		m.Counters = s.Counters
		m.Gauges = s.Gauges
		if len(s.Histograms) > 0 {
			m.Histograms = make(map[string][2]float64, len(s.Histograms))
			for name, h := range s.Histograms {
				m.Histograms[name] = [2]float64{float64(h.Count), h.Sum}
			}
		}
	}
	r.writeLocked(&Record{K: KManifest, T: r.now().Sub(r.start).Nanoseconds(), Man: &m})
	r.mu.Unlock()
	r.dispatch()
}

// Close flushes the stream and closes the underlying file (when the
// Recorder came from Create). It returns the first error the recorder hit.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	for id, ch := range r.subs {
		delete(r.subs, id)
		close(ch)
	}
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	if r.file != nil {
		if err := r.file.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// emit writes rec, first flushing any metric-snapshot boundaries the
// record's virtual time has crossed (so snapshots appear in virtual-time
// order relative to the spans that drove the clock forward).
func (r *Recorder) emit(rec *Record) {
	r.mu.Lock()
	if rec.VT > 0 {
		r.snapUpToLocked(rec.VT)
	}
	r.writeLocked(rec)
	r.mu.Unlock()
	r.dispatch()
}

func (r *Recorder) writeLocked(rec *Record) {
	if r.err != nil || r.closed {
		return
	}
	r.buf.Reset()
	if err := r.enc.Encode(rec); err != nil {
		r.err = err
		return
	}
	line := r.buf.Bytes()
	if _, err := r.bw.Write(line); err != nil && r.err == nil {
		r.err = err
	}
	if rec.K == KMeta && r.metaLine == nil {
		r.metaLine = append([]byte(nil), line...)
	}
	if len(r.subs) > 0 {
		// One shared copy per line; a subscriber whose buffer is full loses
		// the line (a live tail must never stall the run).
		cp := append([]byte(nil), line...)
		for _, ch := range r.subs {
			select {
			case ch <- cp:
			default:
			}
		}
	}
	if len(r.observers) > 0 {
		r.pending = append(r.pending, pendingCallback{rec: rec})
	}
}

// Subscribe tees every encoded line (including the already-written meta
// header) into a fresh channel with the given buffer size. The channel is
// closed when the recorder closes or cancel is called; lines that arrive
// while the buffer is full are dropped. On a nil recorder it returns a
// closed channel.
func (r *Recorder) Subscribe(buffer int) (lines <-chan []byte, cancel func()) {
	if r == nil {
		ch := make(chan []byte)
		close(ch)
		return ch, func() {}
	}
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan []byte, buffer)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if r.subs == nil {
		r.subs = make(map[int]chan []byte)
	}
	id := r.subID
	r.subID++
	r.subs[id] = ch
	if r.metaLine != nil {
		ch <- r.metaLine // buffer >= 1, channel is fresh: never blocks
	}
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		if sub, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(sub)
		}
		r.mu.Unlock()
	}
}

// Observe registers fn to receive every record the recorder writes, after
// the write. Callbacks run outside the recorder lock (so fn may emit
// records itself) but on the emitting goroutine. Register before the run
// starts; a nil recorder is a no-op.
func (r *Recorder) Observe(fn func(*Record)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.observers = append(r.observers, fn)
	r.mu.Unlock()
}

// OnBoundary registers fn to run each time the virtual clock crosses a
// metrics-interval boundary, whether or not that interval's delta
// snapshot was empty. Like Observe callbacks, fn runs outside the
// recorder lock and may emit records. A nil recorder (or a recorder
// without snapshots configured) never fires.
func (r *Recorder) OnBoundary(fn func(vt time.Duration)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.boundaryFns = append(r.boundaryFns, fn)
	r.mu.Unlock()
}

// dispatch drains the pending callback queue outside the lock. Callbacks
// may emit records, queueing more work; the loop runs until the queue is
// empty.
func (r *Recorder) dispatch() {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		work := r.pending
		r.pending = nil
		obsFns := r.observers
		bFns := r.boundaryFns
		r.mu.Unlock()
		for _, p := range work {
			if p.rec != nil {
				for _, fn := range obsFns {
					fn(p.rec)
				}
			} else {
				for _, fn := range bFns {
					fn(time.Duration(p.boundary))
				}
			}
		}
	}
}

// snapUpToLocked emits one delta snapshot per crossed boundary ≤ vt. Empty
// deltas (nothing changed in the interval) are skipped but still advance
// the boundary, so quiet intervals cost nothing in the file.
func (r *Recorder) snapUpToLocked(vt int64) {
	if r.reg == nil || r.iv <= 0 {
		return
	}
	next := r.next.Load()
	if vt < next {
		return
	}
	for vt >= next {
		r.snapAtLocked(next)
		if len(r.boundaryFns) > 0 {
			r.pending = append(r.pending, pendingCallback{boundary: next})
		}
		next += r.iv
	}
	r.next.Store(next)
}

// snapAtLocked captures the registry and writes the delta against the
// previous snapshot, keyed to the virtual boundary vt.
func (r *Recorder) snapAtLocked(vt int64) {
	cur := r.reg.Snapshot()
	rec := &Record{K: KSnap, T: r.now().Sub(r.start).Nanoseconds(), VT: vt}
	prev := r.last
	for name, v := range cur.Counters {
		var pv int64
		if prev != nil {
			pv = prev.Counters[name]
		}
		if d := v - pv; d != 0 {
			if rec.C == nil {
				rec.C = make(map[string]int64)
			}
			rec.C[name] = d
		}
	}
	for name, v := range cur.Gauges {
		pv, ok := 0.0, false
		if prev != nil {
			pv, ok = prev.Gauges[name]
		}
		if !ok || v != pv {
			if rec.G == nil {
				rec.G = make(map[string]float64)
			}
			rec.G[name] = v
		}
	}
	for name, h := range cur.Histograms {
		var pc int64
		var ps float64
		if prev != nil {
			if ph, ok := prev.Histograms[name]; ok {
				pc, ps = ph.Count, ph.Sum
			}
		}
		if dc := h.Count - pc; dc != 0 {
			if rec.H == nil {
				rec.H = make(map[string][2]float64)
			}
			rec.H[name] = [2]float64{float64(dc), h.Sum - ps}
		}
	}
	r.last = cur
	if rec.C == nil && rec.G == nil && rec.H == nil {
		return
	}
	r.writeLocked(rec)
}

// FlagsSet returns the command-line flags that were explicitly set, as a
// name→value map — the manifest's record of how the run was invoked.
// Defaulted flags are omitted so two runs diff on intent, not noise.
func FlagsSet() map[string]string {
	m := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	if len(m) == 0 {
		return nil
	}
	return m
}
