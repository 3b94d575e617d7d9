// Command s2stopo generates a simulated Internet topology and prints a
// summary: tier and relationship mix, IXPs, router-level size, address
// plan, and the CDN platform footprint.
//
// The summary is the product and goes to stdout; diagnostics go to stderr
// (silence them with -q). -metrics writes a telemetry snapshot with the
// generated topology's sizes and the build's wall time, -trace records a
// flight record with one span per build phase (inspect with s2sobs), -ops
// serves the live run state over HTTP (see s2sgen's doc for the
// endpoints), and -cpuprofile/-memprofile/-blockprofile/-mutexprofile
// capture pprof profiles of the run.
//
// Usage:
//
//	s2stopo [-seed N] [-ases N] [-clusters N] [-links] [-platform]
//	        [-metrics PATH] [-trace PATH] [-ops ADDR] [-cpuprofile PATH]
//	        [-memprofile PATH] [-blockprofile PATH] [-mutexprofile PATH] [-q]
//	s2stopo -store DIR [-shards] [-verify]
//
// -store prints the manifest of a sharded dataset store (written by
// s2sgen -store or s2sreport -archive) instead of generating a topology:
// the producing run's provenance (tool, seed, topology digest), the shard
// layout, and the record totals. -shards additionally dumps the per-shard
// table. -verify instead fscks the store — every listed shard is decoded
// and cross-checked against its footer and the manifest — and exits
// non-zero when the store has integrity problems.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/astopo"
	"repro/internal/cdn"
	"repro/internal/geo"
	"repro/internal/itopo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/ops"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "s2stopo: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Int64("seed", 1, "random seed")
		ases     = flag.Int("ases", 300, "number of ASes")
		clusters = flag.Int("clusters", 400, "number of CDN clusters")
		links    = flag.Bool("links", false, "dump every AS-level link")
		platform = flag.Bool("platform", false, "dump every cluster")
		storeDir = flag.String("store", "", "print the manifest of this dataset store and exit")
		shards   = flag.Bool("shards", false, "with -store, dump the per-shard table")
		verify   = flag.Bool("verify", false, "with -store, run an integrity check (fsck) instead of printing the manifest")
		rf       = ops.AddRunFlags("s2stopo", 0)
	)
	rf.Parse()

	if *storeDir != "" {
		if *verify {
			return verifyStore(*storeDir)
		}
		return printStore(*storeDir, *shards)
	}

	reg := obs.NewRegistry()
	if err := rf.Start(reg); err != nil {
		return err
	}
	defer rf.Stop()
	if err := rf.Serve(nil); err != nil {
		return err
	}
	rec, log := rf.Rec, rf.Log

	start := time.Now()
	sp := rec.Begin("as_topology", 0)
	acfg := astopo.DefaultConfig(*seed)
	acfg.NumASes = *ases
	topo, err := astopo.Generate(acfg)
	if err != nil {
		return err
	}
	sp.End(flight.Attrs{N: int64(len(topo.ASes)), M: int64(len(topo.Links))})
	sp = rec.Begin("router_network", 0)
	net, err := itopo.Build(topo, itopo.DefaultConfig(*seed))
	if err != nil {
		return err
	}
	sp.End(flight.Attrs{N: int64(len(net.Routers)), M: int64(len(net.Links))})
	sp = rec.Begin("platform", 0)
	plat, err := cdn.Deploy(net, cdn.DefaultConfig(*seed, *clusters))
	if err != nil {
		return err
	}
	sp.End(flight.Attrs{N: int64(len(plat.Clusters))})
	log.Printf("built topology in %v", time.Since(start).Round(time.Millisecond))

	tiers := map[astopo.Tier]int{}
	dual := 0
	for _, as := range topo.ASes {
		tiers[as.Tier]++
		if topo.DualStack(as.ASN) {
			dual++
		}
	}
	rels := map[astopo.LinkKind]int{}
	v6links := 0
	for _, l := range topo.Links {
		rels[l.Kind]++
		if topo.LinkHasV6(l.A, l.B) {
			v6links++
		}
	}

	fmt.Printf("AS-level topology (seed %d)\n", *seed)
	fmt.Printf("  ASes: %d (tier1 %d, tier2 %d, stub %d, cdn %d); dual-stack %d (%.0f%%)\n",
		len(topo.ASes), tiers[astopo.Tier1], tiers[astopo.Tier2], tiers[astopo.Stub], tiers[astopo.CDN],
		dual, 100*float64(dual)/float64(len(topo.ASes)))
	fmt.Printf("  links: %d (transit %d, private peering %d, IXP peering %d); v6-capable %d\n",
		len(topo.Links), rels[astopo.Transit], rels[astopo.PrivatePeering], rels[astopo.IXPPeering], v6links)
	fmt.Printf("  IXPs: %d\n", len(topo.IXPs))
	for i, ixp := range topo.IXPs {
		fmt.Printf("    %-16s %-14s members %d\n", ixp.Name, geo.Cities[ixp.City].Name, len(topo.IXPMembers(i)))
	}

	internal, xconn := 0, 0
	for _, l := range net.Links {
		if l.Kind == itopo.Internal {
			internal++
		} else {
			xconn++
		}
	}
	fmt.Printf("\nRouter-level network\n")
	fmt.Printf("  routers: %d; links: %d (internal %d, interconnect %d)\n",
		len(net.Routers), len(net.Links), internal, xconn)
	fmt.Printf("  BGP table: %d prefixes; ground-truth table: %d prefixes\n",
		net.BGP.Len(), net.Truth.Len())

	mix := plat.CountryMix()
	fmt.Printf("\nCDN platform\n")
	fmt.Printf("  clusters: %d in %d countries; dual-stack %d\n",
		len(plat.Clusters), len(mix), len(plat.DualStackClusters()))
	fmt.Printf("  top countries: US %.1f%%, DE %.1f%%, JP %.1f%%, AU %.1f%%, IN %.1f%%, CA %.1f%%\n",
		100*mix["US"], 100*mix["DE"], 100*mix["JP"], 100*mix["AU"], 100*mix["IN"], 100*mix["CA"])

	if *links {
		fmt.Printf("\nAS-level links\n")
		for _, l := range topo.Links {
			fmt.Printf("  %-8s %-8s %-4s %-16s %s\n",
				l.A, l.B, l.Rel, l.Kind, geo.Cities[l.City].Name)
		}
	}
	if *platform {
		fmt.Printf("\nClusters\n")
		for _, c := range plat.Clusters {
			v6 := "-"
			if c.DualStack() {
				v6 = c.Server6.String()
			}
			fmt.Printf("  %4d %-14s %-8s v4 %-16s v6 %s\n",
				c.ID, geo.Cities[c.City].Name, c.HostAS, c.Server4, v6)
		}
	}

	if rf.Metrics != "" || rf.Ops != "" {
		reg.Gauge(obs.MetricRunWallSeconds, "wall-clock duration of the run").Set(time.Since(start).Seconds())
		reg.Gauge("s2s_topo_ases", "ASes in the generated topology").Set(float64(len(topo.ASes)))
		reg.Gauge("s2s_topo_as_links", "AS-level links in the generated topology").Set(float64(len(topo.Links)))
		reg.Gauge("s2s_topo_routers", "routers in the generated network").Set(float64(len(net.Routers)))
		reg.Gauge("s2s_topo_router_links", "router-level links in the generated network").Set(float64(len(net.Links)))
		reg.Gauge("s2s_topo_clusters", "CDN clusters deployed").Set(float64(len(plat.Clusters)))
	}
	return rf.Finish(flight.Manifest{Seed: *seed, TopoDigest: topo.Digest()})
}

// verifyStore fscks a dataset store and prints the report; a store with
// integrity problems makes the command exit non-zero.
func verifyStore(dir string) error {
	rep, err := store.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Printf("Dataset store %s\n  %s\n", dir, rep)
	if !rep.OK() {
		return fmt.Errorf("store %s failed verification (%d problems)", dir, len(rep.Problems))
	}
	return nil
}

// printStore summarizes a dataset store's manifest: the producing run's
// provenance, the shard layout, and the record totals.
func printStore(dir string, dumpShards bool) error {
	m, err := store.ReadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("Dataset store %s\n", dir)
	fmt.Printf("  produced by: %s (seed %d)\n", orDash(m.Tool), m.Seed)
	fmt.Printf("  topology:    %s\n", orDash(m.TopoDigest))
	compression := m.Compression
	if compression == "" {
		compression = "none"
	}
	fmt.Printf("  layout:      day length %v, %d pair shards, compression %s\n",
		m.DayLength(), m.PairShards, compression)
	min, max := m.Span()
	days := make(map[int]bool)
	var bytes int64
	segments := 0
	for _, e := range m.Shards {
		days[e.Day] = true
		bytes += e.Bytes
		if e.Seq > 0 {
			segments++
		}
	}
	fmt.Printf("  records:     %d (%d traceroutes, %d pings) over days %.1f-%.1f\n",
		m.Records, m.Traceroutes, m.Pings, min.Hours()/24, max.Hours()/24)
	fmt.Printf("  shards:      %d files (%d follow-up segments) across %d virtual days, %d bytes\n",
		len(m.Shards), segments, len(days), bytes)
	if dumpShards {
		fmt.Printf("\n  %-22s %10s %12s %12s %10s\n", "file", "records", "min day", "max day", "bytes")
		for _, e := range m.Shards {
			fmt.Printf("  %-22s %10d %12.2f %12.2f %10d\n",
				e.File, e.Records,
				time.Duration(e.MinAtNS).Hours()/24, time.Duration(e.MaxAtNS).Hours()/24, e.Bytes)
		}
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
