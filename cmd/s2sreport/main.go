// Command s2sreport regenerates every table and figure of the paper at a
// chosen scale, printing each artifact's rendered output and a
// paper-vs-measured summary — the data behind EXPERIMENTS.md.
//
// Rendered artifacts go to stdout; progress and timing go to stderr
// (silence them with -q). -metrics writes a final telemetry snapshot
// covering every experiment the run executed, -trace records a flight
// record with one span per experiment (inspect with s2sobs), -ops serves
// the live run state over HTTP while the report runs (see s2sgen's doc
// for the endpoints), and -cpuprofile/-memprofile/-blockprofile/
// -mutexprofile capture pprof profiles of the run. SIGQUIT dumps
// goroutine stacks without killing it.
//
// Usage:
//
//	s2sreport [-scale test|default|full] [-seed N] [-only ID[,ID...]]
//	          [-days N] [-mesh N] [-svgdir DIR] [-archive DIR] [-list]
//	          [-metrics PATH] [-trace PATH] [-metrics-interval D] [-ops ADDR]
//	          [-cpuprofile PATH] [-memprofile PATH]
//	          [-blockprofile PATH] [-mutexprofile PATH] [-q]
//
// -archive persists the long-term campaign's record stream into a sharded
// store directory (see internal/store) while the experiments consume it,
// so the exact dataset behind a report can be re-analyzed with
// s2sanalyze -data DIR without re-running the simulation.
//
// Exit codes: 0 success, 1 generic error, 3 archive sink write failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/ops"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		var sinkErr *campaign.SinkError
		if errors.As(err, &sinkErr) {
			fmt.Fprintf(os.Stderr, "s2sreport: dataset sink write failed: %v\n", sinkErr.Err)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "s2sreport: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "default", "simulation scale: test, default, or full")
		seed      = flag.Int64("seed", 1, "master random seed")
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		svgDir    = flag.String("svgdir", "", "write rendered figures (SVG) into this directory")
		archive   = flag.String("archive", "", "persist the long-term campaign into a store directory at this path")
		days      = flag.Int("days", 0, "override the long-term campaign length (days)")
		mesh      = flag.Int("mesh", 0, "override the long-term mesh size")
		rf        = ops.AddRunFlags("s2sreport", 24*time.Hour)
	)
	rf.Parse()
	log := rf.Log

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var sc experiments.Scale
	switch *scaleName {
	case "test":
		sc = experiments.TestScale(*seed)
	case "default":
		sc = experiments.DefaultScale(*seed)
	case "full":
		sc = experiments.FullScale(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *days > 0 {
		sc.LongTermDays = *days
	}
	if *mesh > 0 {
		sc.MeshSize = *mesh
	}
	reg := obs.NewRegistry()
	sc.Metrics = reg
	if err := rf.Start(reg); err != nil {
		return err
	}
	defer rf.Stop()
	rec := rf.Rec

	// The archive store receives the long-term campaign's records alongside
	// the streaming analyses; provenance is stamped once the topology digest
	// is known, and the manifest is written after the experiments ran.
	var (
		archiveW    *store.Writer
		archiveSink *campaign.WriteSink
		err         error
	)
	if *archive != "" {
		archiveW, err = store.Create(*archive, store.Options{})
		if err != nil {
			return err
		}
		archiveW.Instrument(reg)
		archiveSink = campaign.NewWriteSink(archiveW)
		archiveSink.Instrument(reg)
		sc.Archive = archiveSink
	}

	if rec != nil {
		sc.Trace = rec
		if archiveSink != nil {
			archiveSink.Trace(rec)
		}
	}
	if err := rf.Serve(nil); err != nil {
		return err
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	log.Printf("scale=%s seed=%d experiments=%d", *scaleName, *seed, len(selected))
	env, err := experiments.NewEnv(sc)
	if err != nil {
		return err
	}
	if archiveW != nil {
		archiveW.SetProvenance("s2sreport", *seed, env.Topo.Digest())
	}
	for _, e := range selected {
		t0 := time.Now()
		sp := rec.Begin("experiment", 0)
		res, err := e.Run(env)
		sp.End(flight.Attrs{S: e.ID})
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(res.Text)
		fmt.Println(res.Summary())
		if *svgDir != "" && len(res.SVGs) > 0 {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
			for stem, svg := range res.SVGs {
				path := filepath.Join(*svgDir, stem+".svg")
				if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
					return err
				}
				log.Printf("wrote %s", path)
			}
		}
		log.Printf("%s done in %v", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if archiveW != nil {
		if err := archiveSink.Err(); err != nil {
			return &campaign.SinkError{Err: err}
		}
		if err := archiveW.Close(); err != nil {
			return err
		}
		if archiveSink.Count() == 0 {
			log.Printf("archive %s is empty (no selected experiment ran the long-term campaign)", *archive)
		} else {
			log.Printf("archived %d long-term records to %s", archiveSink.Count(), *archive)
		}
	}

	wall := time.Since(start)
	reg.Gauge(obs.MetricRunWallSeconds, "wall-clock duration of the run").Set(wall.Seconds())
	if err := rf.Finish(flight.Manifest{Seed: *seed, TopoDigest: env.Topo.Digest()}); err != nil {
		return err
	}
	log.Printf("done in %v", wall.Round(time.Millisecond))
	return nil
}
