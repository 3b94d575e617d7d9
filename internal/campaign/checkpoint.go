package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// ErrInjectedCrash is returned by a campaign whose CrashAt virtual time
// was reached: the run stops mid-campaign without flushing, simulating a
// hard process death for resume testing.
var ErrInjectedCrash = errors.New("campaign: injected crash")

// ErrShutdown is the graceful-stop sentinel: an Abort hook that returns it
// stops the campaign at the next round boundary without the error being
// treated as a sink failure. Commands map it to a clean exit — the
// dataset holds every completed round and can be flushed, analyzed, and
// resumed from a checkpoint like any interrupted run.
var ErrShutdown = errors.New("campaign: shutdown requested")

// SinkError wraps a dataset-sink write failure that aborted a campaign.
// Commands should detect it (errors.As) and exit with a distinct status:
// the measurements were fine, the dataset is incomplete.
type SinkError struct {
	Err error
}

func (e *SinkError) Error() string { return fmt.Sprintf("campaign: dataset sink failed: %v", e.Err) }
func (e *SinkError) Unwrap() error { return e.Err }

// CheckpointableWriter is a dataset writer that can make everything
// written so far durable and report a resume position: for a flat file
// the byte offset to truncate back to, for the sharded store the number
// of committed records. trace writers gain this via a small adapter in
// the CLI; store.Writer implements it directly.
type CheckpointableWriter interface {
	Checkpoint() (pos int64, err error)
}

// MetricCheckpoints counts campaign checkpoints written.
const MetricCheckpoints = "s2s_campaign_checkpoints_total"

// CheckpointVersion is the on-disk checkpoint format version.
const CheckpointVersion = 1

// Checkpoint is a campaign's durable resume point: where the virtual
// clock was, how much of the dataset is committed, and the runtime state
// (quarantine list, round cursor) that is not derivable from the seed.
// Everything else — topology, platform, fault plan — is regenerated
// deterministically from the identity fields, which Compatible checks.
type Checkpoint struct {
	Version    int    `json:"version"`
	Tool       string `json:"tool,omitempty"`
	Campaign   string `json:"campaign"`
	Seed       int64  `json:"seed"`
	TopoDigest string `json:"topo_digest,omitempty"`
	// Faults names the fault plan ("", "standard", "heavy") so a resume
	// cannot silently run under a different failure schedule.
	Faults     string `json:"faults,omitempty"`
	IntervalNS int64  `json:"interval_ns"`
	DurationNS int64  `json:"duration_ns"`
	// ResumeAtNS is the virtual time the resumed run starts at (the first
	// round NOT covered by this checkpoint).
	ResumeAtNS int64 `json:"resume_at_ns"`
	Rounds     int64 `json:"rounds"`
	// Records is how many records the campaign had delivered; SinkPos is
	// the sink's durable position (byte offset or committed-record count).
	Records int64 `json:"records"`
	SinkPos int64 `json:"sink_pos"`
	// Runtime carries the engine's pair-health state.
	Runtime *RuntimeState `json:"runtime,omitempty"`
}

// ResumeAt returns the virtual time the resumed run starts at.
func (c *Checkpoint) ResumeAt() time.Duration { return time.Duration(c.ResumeAtNS) }

// Compatible checks that a checkpoint belongs to the run being resumed:
// same tool, seed, topology, and fault plan. Any mismatch would splice
// records from two different universes into one dataset.
func (c *Checkpoint) Compatible(tool string, seed int64, topoDigest, faultsSpec string) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("campaign: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.Tool != "" && tool != "" && c.Tool != tool {
		return fmt.Errorf("campaign: checkpoint written by %q, resuming with %q", c.Tool, tool)
	}
	if c.Seed != seed {
		return fmt.Errorf("campaign: checkpoint seed %d, run seed %d", c.Seed, seed)
	}
	if c.TopoDigest != "" && topoDigest != "" && c.TopoDigest != topoDigest {
		return fmt.Errorf("campaign: checkpoint topology %s, run topology %s", c.TopoDigest, topoDigest)
	}
	if c.Faults != faultsSpec {
		return fmt.Errorf("campaign: checkpoint fault plan %q, run fault plan %q", c.Faults, faultsSpec)
	}
	return nil
}

// matches checks the loop parameters a resumed campaign must share with
// the interrupted one.
func (c *Checkpoint) matches(kind string, interval, duration time.Duration) error {
	if c.Campaign != kind {
		return fmt.Errorf("campaign: checkpoint is a %q campaign, not %q", c.Campaign, kind)
	}
	if time.Duration(c.IntervalNS) != interval {
		return fmt.Errorf("campaign: checkpoint interval %v, run interval %v", time.Duration(c.IntervalNS), interval)
	}
	if time.Duration(c.DurationNS) != duration {
		return fmt.Errorf("campaign: checkpoint duration %v, run duration %v", time.Duration(c.DurationNS), duration)
	}
	if c.ResumeAtNS < 0 || c.ResumeAtNS > c.DurationNS {
		return fmt.Errorf("campaign: checkpoint resume point %v outside campaign", time.Duration(c.ResumeAtNS))
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s: version %d, want %d", path, c.Version, CheckpointVersion)
	}
	return &c, nil
}

// saveCheckpoint atomically replaces path with cp: write to a temp file,
// fsync, rename.
func saveCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(data, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Checkpointer writes periodic campaign checkpoints. Every Interval of
// virtual time it asks the sink for a durable position and atomically
// replaces Path (write to a temp file, fsync, rename), so a crash at any
// instant leaves either the previous or the new checkpoint — never a torn
// one.
type Checkpointer struct {
	// Path of the checkpoint file; Interval is virtual time between
	// checkpoints.
	Path     string
	Interval time.Duration
	// Sink makes the dataset durable and reports the resume position.
	Sink CheckpointableWriter
	// Records reports how many records the campaign has delivered
	// (typically WriteSink.Count).
	Records func() int64
	// Identity of the run, echoed into the checkpoint for Compatible.
	Tool       string
	Seed       int64
	TopoDigest string
	Faults     string
	// Metrics and Trace observe checkpointing (optional).
	Metrics *obs.Registry
	Trace   *flight.Recorder

	counter *obs.Counter
}

// write produces one checkpoint with resume point resumeAt.
func (ck *Checkpointer) write(kind string, interval, duration, resumeAt time.Duration, rounds int64, e *Engine) error {
	pos, err := ck.Sink.Checkpoint()
	if err != nil {
		return fmt.Errorf("campaign: checkpoint sink: %w", err)
	}
	cp := Checkpoint{
		Version:    CheckpointVersion,
		Tool:       ck.Tool,
		Campaign:   kind,
		Seed:       ck.Seed,
		TopoDigest: ck.TopoDigest,
		Faults:     ck.Faults,
		IntervalNS: int64(interval),
		DurationNS: int64(duration),
		ResumeAtNS: int64(resumeAt),
		Rounds:     rounds,
		SinkPos:    pos,
		Runtime:    e.snapshotState(),
	}
	if ck.Records != nil {
		cp.Records = ck.Records()
	}
	if err := saveCheckpoint(ck.Path, &cp); err != nil {
		return err
	}
	if ck.Metrics != nil && ck.counter == nil {
		ck.counter = ck.Metrics.Counter(MetricCheckpoints, "campaign checkpoints written")
	}
	ck.counter.Inc()
	ck.Trace.Event(flight.PhCheckpoint, resumeAt, flight.Attrs{N: cp.Records, M: pos})
	return nil
}

// runControl is the shared campaign round loop: every campaign type
// drives its schedule through this one implementation, which layers
// resume, periodic checkpoints, injected crashes, and sink-abort checks
// over the plain virtual-clock iteration.
type runControl struct {
	e        *Engine
	c        Consumer
	kind     string
	duration time.Duration
	interval time.Duration
	// schedule returns the round's task list for a virtual time; the
	// returned slice is only read.
	schedule func(at time.Duration) []measurement
	ckpt     *Checkpointer
	resume   *Checkpoint
	crashAt  time.Duration
	// abort is polled after every round; a non-nil error stops the
	// campaign with a SinkError (typically WriteSink.Err).
	abort func() error
	rec   *flight.Recorder
}

// run executes the loop and returns the number of rounds this invocation
// ran (not counting rounds covered by a resumed checkpoint).
func (rc *runControl) run() (int64, error) {
	startAt := time.Duration(0)
	rounds := int64(0)
	if rc.resume != nil {
		if err := rc.resume.matches(rc.kind, rc.interval, rc.duration); err != nil {
			return 0, err
		}
		startAt = rc.resume.ResumeAt()
		rc.e.restoreState(rc.resume.Runtime)
		rc.rec.Event(flight.PhResume, startAt, flight.Attrs{N: rc.resume.Rounds})
	}
	next := time.Duration(-1)
	if rc.ckpt != nil && rc.ckpt.Interval > 0 {
		next = startAt + rc.ckpt.Interval
	}
	for at := startAt; at < rc.duration; at += rc.interval {
		if rc.crashAt > 0 && at >= rc.crashAt {
			return rounds, ErrInjectedCrash
		}
		rc.e.RunRound(rc.schedule(at), at, rc.c)
		rounds++
		if rc.abort != nil {
			if err := rc.abort(); err != nil {
				if errors.Is(err, ErrShutdown) {
					return rounds, err
				}
				return rounds, &SinkError{Err: err}
			}
		}
		if next >= 0 && at+rc.interval >= next {
			total := rounds
			if rc.resume != nil {
				total += rc.resume.Rounds
			}
			if err := rc.ckpt.write(rc.kind, rc.interval, rc.duration, at+rc.interval, total, rc.e); err != nil {
				return rounds, err
			}
			next += rc.ckpt.Interval
		}
	}
	return rounds, nil
}
