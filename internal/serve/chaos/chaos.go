// Package chaos is the serving plane's deterministic network-fault
// layer: a seeded schedule of message-level faults — drops, added
// latency, duplicated deliveries, lost replies, and one-way or two-way
// partitions — injected between clients and replicas through an
// http.RoundTripper.
//
// Like internal/faults on the measurement plane, a Plan is generated
// from a seed and immutable in its random part: every verdict is a pure
// function of (seed, src→dst edge, elapsed time), so two runs with the
// same seed inject byte-identical fault schedules at any concurrency.
// Unlike the measurement plane, the serving components are named by
// ephemeral URLs, so per-edge windows are derived lazily — hashing the
// edge's names seeds the edge's own generator the first time traffic
// crosses it, which keeps the schedule independent of discovery order.
//
// Two kinds of windows coexist:
//
//   - Generated noise: each directed edge draws its own drop, delay,
//     duplicate, and reply-loss windows inside [0, Horizon). After the
//     horizon the network is deterministically healed, which is what
//     lets tests assert bounded recovery.
//   - Scripted windows: Add/Partition place explicit faults (a drill
//     cuts one replica off from every client mid-load). Scripted
//     windows are the non-random part of the schedule and may extend
//     past the horizon.
//
// The plan also owns the fault clock: all transports share one epoch,
// started at the first request (or explicitly via StartClock), so "the
// partition at 500ms" means the same instant on every edge.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Kind classifies one fault window on a directed edge.
type Kind uint8

// Fault kinds. Drop and reply-loss both surface as a transport error to
// the sender; the difference is whether the receiver saw the request —
// reply-loss makes a replica do the work of a query whose answer the
// client never sees, which pure drops cannot reach.
const (
	// KindDrop loses the request before it reaches the destination.
	KindDrop Kind = iota
	// KindDelay adds latency to each request on the edge.
	KindDelay
	// KindDuplicate delivers each request twice (the retransmit case);
	// the sender sees one response.
	KindDuplicate
	// KindReplyLoss delivers the request but loses the response: the
	// destination processed it, the sender sees a network error.
	KindReplyLoss
)

// String names the kind for telemetry and the flight record.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindReplyLoss:
		return "reply_loss"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PhChaos is the flight phase of scripted chaos windows.
const PhChaos = "chaos"

// Window is one fault window on a directed edge, in plan time.
type Window struct {
	Kind   Kind
	Start  time.Duration
	Length time.Duration
	// Delay is the added per-request latency for KindDelay windows.
	Delay time.Duration
}

func (w Window) contains(at time.Duration) bool {
	return w.Start <= at && at < w.Start+w.Length
}

// Verdict is the fate of one request on its edge at one instant.
type Verdict struct {
	Drop      bool
	Duplicate bool
	LoseReply bool
	Delay     time.Duration
}

// Config parameterizes a Plan. Rates are expected window counts per
// directed edge over the horizon; lengths are mean window lengths (each
// window draws in [0.5, 1.5) of the mean).
type Config struct {
	Seed int64
	// Horizon confines generated windows to [0, Horizon): past it the
	// network is healed (default 2s). Scripted windows are not bound.
	Horizon time.Duration

	DropRate float64
	DropLen  time.Duration

	DelayRate float64
	DelayLen  time.Duration
	// MaxDelay bounds the per-request latency of a delay window
	// (default 25ms).
	MaxDelay time.Duration

	DupRate float64
	DupLen  time.Duration

	ReplyLossRate float64
	ReplyLossLen  time.Duration
}

func (c Config) fill() Config {
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.DropLen <= 0 {
		c.DropLen = 150 * time.Millisecond
	}
	if c.DelayLen <= 0 {
		c.DelayLen = 250 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 25 * time.Millisecond
	}
	if c.DupLen <= 0 {
		c.DupLen = 200 * time.Millisecond
	}
	if c.ReplyLossLen <= 0 {
		c.ReplyLossLen = 150 * time.Millisecond
	}
	return c
}

// Standard returns a moderate noise profile over the given horizon:
// every edge sees a little of everything, but no single window lasts
// long enough to defeat the liveness thresholds on its own.
func Standard(seed int64, horizon time.Duration) Config {
	return Config{
		Seed: seed, Horizon: horizon,
		DropRate: 1.5, DelayRate: 2, DupRate: 1, ReplyLossRate: 1,
	}
}

// Hash salts: one namespace per generated window family, so an edge's
// drop schedule never correlates with its delay schedule.
const (
	saltGenDrop uint64 = iota + 1
	saltGenDelay
	saltGenDup
	saltGenReplyLoss
)

// edge is one directed src→dst link between serving components.
type edge struct{ src, dst string }

// Plan is a chaos schedule. The generated part is immutable and purely
// seed-derived; scripted windows may be added at any time. All queries
// are safe for concurrent use.
type Plan struct {
	cfg Config

	mu     sync.Mutex
	gen    map[edge][]Window // memoized generated noise, per directed edge
	script map[edge][]Window
	epoch  time.Time // fault clock zero; set once by StartClock

	drops, delays, dups, lost atomic.Int64

	dropsC, delaysC, dupsC, lostC *obs.Counter
}

// New builds a plan from the config.
func New(cfg Config) *Plan {
	return &Plan{
		cfg:    cfg.fill(),
		gen:    make(map[edge][]Window),
		script: make(map[edge][]Window),
	}
}

// Horizon returns the generated-noise horizon: past it only scripted
// windows remain.
func (p *Plan) Horizon() time.Duration { return p.cfg.Horizon }

// StartClock starts the shared fault clock; the first call wins, so the
// epoch is either set explicitly before traffic or by the first request.
func (p *Plan) StartClock() {
	p.mu.Lock()
	if p.epoch.IsZero() {
		p.epoch = time.Now()
	}
	p.mu.Unlock()
}

// Elapsed returns the time since the fault clock started (zero before).
func (p *Plan) Elapsed() time.Duration {
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	if epoch.IsZero() {
		return 0
	}
	return time.Since(epoch)
}

// Add places one scripted window on the directed src→dst edge.
func (p *Plan) Add(src, dst string, w Window) {
	e := edge{src, dst}
	p.mu.Lock()
	p.script[e] = append(p.script[e], w)
	p.mu.Unlock()
}

// CutOneWay drops everything src sends to dst during the window; the
// reverse direction is untouched.
func (p *Plan) CutOneWay(src, dst string, start, length time.Duration) {
	p.Add(src, dst, Window{Kind: KindDrop, Start: start, Length: length})
}

// Partition cuts both directions between a and b during the window — a
// full two-way partition of that link.
func (p *Plan) Partition(a, b string, start, length time.Duration) {
	p.CutOneWay(a, b, start, length)
	p.CutOneWay(b, a, start, length)
}

// At returns the verdict for a request crossing src→dst at plan time at.
// The generated part is a pure function of (seed, edge, at).
func (p *Plan) At(src, dst string, at time.Duration) Verdict {
	e := edge{src, dst}
	p.mu.Lock()
	gen, ok := p.gen[e]
	if !ok {
		gen = p.generate(e)
		p.gen[e] = gen
	}
	script := p.script[e]
	p.mu.Unlock()

	var v Verdict
	for _, ws := range [2][]Window{gen, script} {
		for _, w := range ws {
			if !w.contains(at) {
				continue
			}
			switch w.Kind {
			case KindDrop:
				v.Drop = true
			case KindDuplicate:
				v.Duplicate = true
			case KindReplyLoss:
				v.LoseReply = true
			case KindDelay:
				if w.Delay > v.Delay {
					v.Delay = w.Delay
				}
			}
		}
	}
	return v
}

// generate draws the edge's noise windows. Each family gets its own
// generator seeded by (seed, family salt, hashed edge names), so the
// schedule does not depend on which edges carried traffic first.
func (p *Plan) generate(e edge) []Window {
	var out []Window
	for _, fam := range [...]struct {
		kind Kind
		salt uint64
		rate float64
		mean time.Duration
	}{
		{KindDrop, saltGenDrop, p.cfg.DropRate, p.cfg.DropLen},
		{KindDelay, saltGenDelay, p.cfg.DelayRate, p.cfg.DelayLen},
		{KindDuplicate, saltGenDup, p.cfg.DupRate, p.cfg.DupLen},
		{KindReplyLoss, saltGenReplyLoss, p.cfg.ReplyLossRate, p.cfg.ReplyLossLen},
	} {
		if fam.rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(hash(
			uint64(p.cfg.Seed), fam.salt, strHash(e.src), strHash(e.dst)))))
		n := int(fam.rate)
		if rng.Float64() < fam.rate-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			w := Window{
				Kind:   fam.kind,
				Start:  time.Duration(rng.Int63n(int64(p.cfg.Horizon))),
				Length: fam.mean/2 + time.Duration(rng.Int63n(int64(fam.mean))),
			}
			if w.Start+w.Length > p.cfg.Horizon {
				w.Length = p.cfg.Horizon - w.Start // heal at the horizon, always
			}
			if fam.kind == KindDelay {
				w.Delay = 1 + time.Duration(rng.Int63n(int64(p.cfg.MaxDelay)))
			}
			out = append(out, w)
		}
	}
	return out
}

// Instrument registers injection counters: how much chaos was actually
// delivered (scheduled windows that saw no traffic cost nothing).
func (p *Plan) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.dropsC = reg.Counter("s2s_chaos_drops_total", "requests dropped by the chaos transport")
	p.delaysC = reg.Counter("s2s_chaos_delays_total", "requests delayed by the chaos transport")
	p.dupsC = reg.Counter("s2s_chaos_dup_deliveries_total", "requests delivered twice by the chaos transport")
	p.lostC = reg.Counter("s2s_chaos_replies_lost_total", "responses lost after delivery by the chaos transport")
}

// Emit announces the scripted windows to the flight record, stamped at
// their plan-time start — the drill's partitions sit in the trace next
// to the failovers and alerts they cause.
func (p *Plan) Emit(rec *flight.Recorder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for e, ws := range p.script {
		for _, w := range ws {
			rec.Announce(PhChaos, w.Start, flight.Attrs{
				S: w.Kind.String() + " " + e.src + ">" + e.dst, N: int64(w.Length),
			})
		}
	}
}

// Totals returns how many faults of each kind were injected so far.
func (p *Plan) Totals() (drops, delays, dups, repliesLost int64) {
	return p.drops.Load(), p.delays.Load(), p.dups.Load(), p.lost.Load()
}

func (p *Plan) noteDrop()  { p.drops.Add(1); p.dropsC.Inc() }
func (p *Plan) noteDelay() { p.delays.Add(1); p.delaysC.Inc() }
func (p *Plan) noteDup()   { p.dups.Add(1); p.dupsC.Inc() }
func (p *Plan) noteLost()  { p.lost.Add(1); p.lostC.Inc() }

// hash is the repo-standard FNV-1a mix over 64-bit words.
func hash(vals ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// strHash folds a component name (a base URL) into one hash word.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
