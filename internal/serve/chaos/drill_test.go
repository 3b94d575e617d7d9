package chaos

import (
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// drillInterval is the fixture's campaign cadence.
const drillInterval = 6 * time.Hour

// buildDrillStore writes a small deterministic dataset — a full mesh of
// `servers` servers over `rounds` rounds — for the drill to query.
func buildDrillStore(t testing.TB, servers, rounds int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "drill.store")
	w, err := store.Create(dir, store.Options{PairShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.SetProvenance("chaos-test", 42, "deadbeef")
	addr := func(id int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1})
	}
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * drillInterval
		for s := 0; s < servers; s++ {
			for d := 0; d < servers; d++ {
				if s == d {
					continue
				}
				rtt := time.Duration(10+10*s+d+r) * time.Millisecond
				tr := &trace.Traceroute{
					SrcID: s, DstID: d,
					Src: addr(s), Dst: addr(d),
					At: at, Complete: true, RTT: rtt,
					Hops: []trace.Hop{
						{Addr: addr(100 + s), RTT: rtt / 2},
						{Addr: addr(d), RTT: rtt},
					},
				}
				if err := w.WriteTraceroute(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDrillPartitionSafety is the chaos suite's capstone: a seeded drill
// that cuts one replica off from every client mid-load, heals, and then
// proves that
//
//   - no two answers for one query ever disagreed, during the chaos or
//     when every replica was asked for every acknowledged key after the
//     heal;
//   - the degradation machinery actually engaged: the partitioned
//     replica served nobody during the cut while its clients failed over,
//     admission control shed load, and the chaos layer injected faults.
//
// Run under -race in CI: the drill is also the serving plane's best
// concurrency workout.
func TestDrillPartitionSafety(t *testing.T) {
	dir := buildDrillStore(t, 3, 4)
	rep, err := RunDrill(DrillConfig{
		OpenBackend: func() (*serve.Backend, error) {
			return serve.OpenBackend(dir, serve.BackendConfig{Interval: drillInterval})
		},
		Seed:            7,
		Replicas:        3,
		Fleet:           10,
		MaxInFlight:     1,
		Horizon:         1200 * time.Millisecond,
		PartitionAfter:  300 * time.Millisecond,
		PartitionFor:    400 * time.Millisecond,
		ClientTimeout:   8 * time.Second,
		MetricsInterval: 200 * time.Millisecond,
		TracePath:       filepath.Join(t.TempDir(), "drill.flight"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drill: %d acked / %d requests, failovers=%d shed=%d retries=%d trips=%d "+
		"chaos={drops=%d delays=%d dups=%d lost=%d}",
		rep.Acked, rep.Requests, rep.Failovers, rep.Shed, rep.Retries, rep.BreakerTrips,
		rep.Drops, rep.Delays, rep.Dups, rep.RepliesLost)

	if rep.Contradictions != 0 {
		t.Fatalf("%d acknowledged digests contradicted", rep.Contradictions)
	}
	if rep.RequeryErrors != 0 {
		t.Fatalf("%d acknowledged keys unanswerable after the heal", rep.RequeryErrors)
	}
	if !rep.SafetyOK {
		t.Fatal("report.SafetyOK = false")
	}
	if rep.Acked == 0 {
		t.Fatal("the fleet never got an acknowledged response")
	}
	// The drill must actually have hurt: a partition that forces no
	// failover, or load that never sheds, proves nothing.
	if rep.CutLeaks != 0 {
		t.Fatalf("partitioned %s still served %d answers during the cut", rep.Partitioned, rep.CutLeaks)
	}
	if rep.Failovers == 0 {
		t.Fatalf("partitioning %s forced no failover", rep.Partitioned)
	}
	if rep.Shed == 0 {
		t.Fatal("admission control never shed under a 10-client fleet with 1 slot")
	}
	if rep.Drops+rep.Delays+rep.Dups+rep.RepliesLost == 0 {
		t.Fatal("the chaos layer injected nothing")
	}
}

// TestDrillRejectsSingleReplica: with one replica the partition leaves
// its clients nowhere to fail over, so the drill is a configuration
// error, not a vacuous pass.
func TestDrillRejectsSingleReplica(t *testing.T) {
	_, err := RunDrill(DrillConfig{
		OpenBackend: func() (*serve.Backend, error) { return nil, nil },
		Replicas:    1,
	})
	if err == nil {
		t.Fatal("drill accepted a single-replica deployment")
	}
}
