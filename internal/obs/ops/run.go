package ops

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/flight"
)

// RunFlags wires the telemetry flags the batch CLIs share, from flag
// definition to the final metrics file and flight-record manifest:
// -metrics, -ops, -q, -trace, -cpuprofile, -memprofile, -blockprofile,
// -mutexprofile and, for tools with a virtual clock, -metrics-interval.
//
//	rf := ops.AddRunFlags("s2sgen", 24*time.Hour)
//	// ... the tool's own flags ...
//	rf.Parse()                  // a bad telemetry value exits 2
//	if err := rf.Start(reg); err != nil { ... }
//	defer rf.Stop()
//	if err := rf.Serve(src); err != nil { ... }
//	// ... the run, recording into rf.Rec ...
//	return rf.Finish(flight.Manifest{Seed: seed})
type RunFlags struct {
	Tool            string
	Metrics         string        // -metrics: final snapshot path
	Ops             string        // -ops: live ops server address
	Trace           string        // -trace: flight record path
	Quiet           bool          // -q
	MetricsInterval time.Duration // -metrics-interval; 0 when the tool has none
	Profiles        obs.Profiles

	// Log is the tool's logger, set by Parse.
	Log *obs.Logger
	// Rec is the run's flight recorder, set by Start: to -trace, else
	// into the void with -ops, else nil (a no-op recorder).
	Rec *flight.Recorder

	hasInterval  bool
	reg          *obs.Registry
	stopProfiles func() error
	stopOps      func()
}

// AddRunFlags defines the shared telemetry flags on the command line.
// A positive interval also defines -metrics-interval with that default.
func AddRunFlags(tool string, interval time.Duration) *RunFlags {
	f := &RunFlags{Tool: tool, hasInterval: interval > 0}
	flag.StringVar(&f.Metrics, "metrics", "", "write a final metrics snapshot to this path (.json = JSON, else Prometheus text)")
	flag.StringVar(&f.Ops, "ops", "", "serve live ops endpoints (/metrics, /healthz, /runz, /analysisz, /flight/tail, /debug/pprof) on this address, e.g. :6060")
	flag.BoolVar(&f.Quiet, "q", false, "suppress progress output on stderr")
	flag.StringVar(&f.Profiles.CPU, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&f.Profiles.Mem, "memprofile", "", "write a heap profile to this path")
	flag.StringVar(&f.Profiles.Block, "blockprofile", "", "write a goroutine blocking profile to this path")
	flag.StringVar(&f.Profiles.Mutex, "mutexprofile", "", "write a mutex contention profile to this path")
	flag.StringVar(&f.Trace, "trace", "", "write a flight record (JSONL) to this path; inspect with s2sobs")
	if f.hasInterval {
		flag.DurationVar(&f.MetricsInterval, "metrics-interval", interval, "virtual time between metric snapshots in the flight record")
	}
	return f
}

// Parse parses the command line and checks the telemetry values. Like a
// malformed flag, a bad value is a usage error: it is printed and the
// process exits 2, before the run starts.
func (f *RunFlags) Parse() {
	flag.Parse()
	var err error
	if f.hasInterval {
		err = obs.ValidateMetricsInterval(f.MetricsInterval)
	}
	if err == nil {
		err = obs.ValidateOpsAddr(f.Ops)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.Tool, err)
		os.Exit(2)
	}
	f.Log = obs.NewLogger(f.Tool, f.Quiet)
}

// Start installs the SIGQUIT stack dump, starts the profiles and opens
// the flight recorder over reg. Defer Stop after it succeeds.
func (f *RunFlags) Start(reg *obs.Registry) error {
	obs.DumpOnSIGQUIT()
	stop, err := obs.StartProfiles(f.Profiles)
	if err != nil {
		return err
	}
	f.reg, f.stopProfiles, f.stopOps = reg, stop, func() {}
	f.Rec, err = OpenRecorder(f.Trace, f.Ops != "", flight.Options{
		Tool: f.Tool, Registry: reg, MetricsInterval: f.MetricsInterval,
	})
	if err != nil {
		f.Stop()
	}
	return err
}

// Serve starts the live telemetry over the run's registry and recorder:
//
//   - with -ops, an ops server (/metrics, /healthz, /runz, /analysisz,
//     /flight/tail, /debug/pprof);
//   - with a recorder, the standard alert engine attached to it,
//     degrading the ops server's /healthz while rules fire (stderr-only
//     when there is no server);
//   - src, when non-nil, backs /analysisz.
func (f *RunFlags) Serve(src AnalysisSource) error {
	var srv *Server
	if f.Ops != "" {
		var err error
		srv, err = Start(f.Ops, Options{Tool: f.Tool, Registry: f.reg, Recorder: f.Rec, Analysis: src, Logger: f.Log})
		if err != nil {
			return err
		}
		f.stopOps = func() { srv.Close() }
	}
	if f.Rec != nil {
		var health alert.Health
		if srv != nil {
			health = srv.Health()
		}
		alert.New(alert.Options{Registry: f.reg, Logger: f.Log, Health: health}).Attach(f.Rec)
	}
	return nil
}

// Finish writes the -metrics snapshot, then the flight record's manifest
// (m with Tool and Flags filled in), and closes the recorder.
func (f *RunFlags) Finish(m flight.Manifest) error {
	if f.Metrics != "" {
		if err := obs.WriteFile(f.Metrics, f.reg); err != nil {
			return err
		}
		f.Log.Printf("wrote metrics snapshot to %s", f.Metrics)
	}
	if f.Rec == nil {
		return nil
	}
	m.Tool, m.Flags = f.Tool, flight.FlagsSet()
	f.Rec.WriteManifest(m)
	if err := f.Rec.Close(); err != nil {
		return err
	}
	if f.Trace != "" {
		f.Log.Printf("wrote flight record to %s", f.Trace)
	}
	return nil
}

// Stop shuts the ops server down and writes the profiles.
func (f *RunFlags) Stop() {
	f.stopOps()
	if err := f.stopProfiles(); err != nil {
		f.Log.Errorf("profiles: %v", err)
	}
}

// OpenRecorder opens a run's flight recorder: to path when set, else
// into io.Discard when live (an ops server's /flight/tail and the alert
// engine still need the stream), else none — nil is a no-op recorder.
func OpenRecorder(path string, live bool, o flight.Options) (*flight.Recorder, error) {
	switch {
	case path != "":
		return flight.Create(path, o)
	case live:
		return flight.New(io.Discard, o), nil
	}
	return nil, nil
}
