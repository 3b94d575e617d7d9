package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// fixtureInterval is the synthetic campaign cadence.
const fixtureInterval = 6 * time.Hour

// buildStore writes a small deterministic dataset: `servers` servers,
// full mesh, `rounds` rounds at fixtureInterval, v4+v6 traceroutes with
// predictable RTTs plus a v4 ping per round. Hop paths flip between two
// variants halfway through, so path-history epochs are known.
func buildStore(t testing.TB, servers, rounds int) string {
	t.Helper()
	return buildStoreSeed(t, servers, rounds, 42)
}

// buildStoreSeed is buildStore with the provenance seed in the manifest
// set to seed.
func buildStoreSeed(t testing.TB, servers, rounds int, seed int64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "fixture.store")
	w, err := store.Create(dir, store.Options{PairShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.SetProvenance("serve-test", seed, "deadbeef")
	addr4 := func(id int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1})
	}
	addr6 := func(id int) netip.Addr {
		var b [16]byte
		b[0], b[14], b[15] = 0x24, byte(id>>8), byte(id)
		return netip.AddrFrom16(b)
	}
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * fixtureInterval
		for s := 0; s < servers; s++ {
			for d := 0; d < servers; d++ {
				if s == d {
					continue
				}
				for _, v6 := range []bool{false, true} {
					tr := &trace.Traceroute{
						SrcID: s, DstID: d, V6: v6,
						At:       at,
						Complete: true,
						RTT:      rttFor(s, d, r, v6),
					}
					if v6 {
						tr.Src, tr.Dst = addr6(s), addr6(d)
					} else {
						tr.Src, tr.Dst = addr4(s), addr4(d)
					}
					// Two path variants: rounds < rounds/2 use hop 100+s,
					// later rounds hop 200+s — exactly one path change.
					hopID := 100 + s
					if r >= rounds/2 {
						hopID = 200 + s
					}
					tr.Hops = []trace.Hop{
						{Addr: addr4(hopID), RTT: tr.RTT / 2},
						{Addr: tr.Dst, RTT: tr.RTT},
					}
					if err := w.WriteTraceroute(tr); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.WritePing(&trace.Ping{
					SrcID: s, DstID: d,
					Src: addr4(s), Dst: addr4(d),
					At:  at + time.Minute,
					RTT: rttFor(s, d, r, false),
				}); err != nil {
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

// rttFor is the fixture's deterministic RTT for (src, dst, round).
func rttFor(s, d, r int, v6 bool) time.Duration {
	ms := 10 + 10*s + d + r
	if v6 {
		ms += 5
	}
	return time.Duration(ms) * time.Millisecond
}

func openTestBackend(t testing.TB, dir string) *Backend {
	t.Helper()
	be, err := OpenBackend(dir, BackendConfig{Interval: fixtureInterval})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestSeries(t *testing.T) {
	const servers, rounds = 3, 8
	be := openTestBackend(t, buildStore(t, servers, rounds))
	q := PairQuery{Src: 0, Dst: 1, To: -1, Step: fixtureInterval}
	resp, err := be.Series(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Each round contributes one complete traceroute and one ping.
	if want := 2 * rounds; resp.Samples != want {
		t.Fatalf("samples = %d, want %d", resp.Samples, want)
	}
	if len(resp.Points) != rounds {
		t.Fatalf("points = %d, want %d", len(resp.Points), rounds)
	}
	for i, pt := range resp.Points {
		want := float64(rttFor(0, 1, i, false)) / float64(time.Millisecond)
		if pt.MinMs != want || pt.AvgMs != want || pt.MaxMs != want {
			t.Fatalf("bucket %d: min/avg/max = %v/%v/%v, want %v", i, pt.MinMs, pt.AvgMs, pt.MaxMs, want)
		}
		if pt.Count != 2 {
			t.Fatalf("bucket %d: count = %d, want 2", i, pt.Count)
		}
	}

	// A half-open sub-window keeps only the covered rounds.
	q2 := PairQuery{Src: 0, Dst: 1, From: 2 * fixtureInterval, To: 5 * fixtureInterval, Step: fixtureInterval}
	sub, err := be.Series(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; sub.Samples != want {
		t.Fatalf("sub-window samples = %d, want %d", sub.Samples, want)
	}
	if sub.Points[0].AtNS != int64(2*fixtureInterval) {
		t.Fatalf("sub-window first bucket at %d", sub.Points[0].AtNS)
	}
}

func TestPaths(t *testing.T) {
	const rounds = 8
	be := openTestBackend(t, buildStore(t, 3, rounds))
	resp, err := be.Paths(context.Background(), PairQuery{Src: 1, Dst: 2, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Traceroutes != rounds {
		t.Fatalf("traceroutes = %d, want %d", resp.Traceroutes, rounds)
	}
	// The fixture flips the hop path exactly once, halfway through.
	if resp.Changes != 1 || len(resp.Epochs) != 2 {
		t.Fatalf("changes = %d epochs = %d, want 1 change in 2 epochs", resp.Changes, len(resp.Epochs))
	}
	for i, ep := range resp.Epochs {
		if ep.Count != rounds/2 {
			t.Fatalf("epoch %d: count = %d, want %d", i, ep.Count, rounds/2)
		}
		if len(ep.Hops) != 2 {
			t.Fatalf("epoch %d: %d hops", i, len(ep.Hops))
		}
	}
	if resp.Epochs[0].Hops[0] == resp.Epochs[1].Hops[0] {
		t.Fatalf("epochs share first hop %s — path change not detected", resp.Epochs[0].Hops[0])
	}
}

// TestAnswerDeterministic is the guard stateless serving rests on: two
// backends opened independently on one archive report the same archive
// identity and return byte-identical bodies and digests over the load
// generator's whole query universe — every endpoint, every pair, unbounded
// and bounded windows — so any replica can answer any query. Another
// archive, or other answer-shaping config, must change the identity.
func TestAnswerDeterministic(t *testing.T) {
	dir := buildStore(t, 3, 6)
	a, b := openTestBackend(t, dir), openTestBackend(t, dir)
	if a.ArchiveID() == "" || a.ArchiveID() != b.ArchiveID() {
		t.Fatalf("independently opened backends report archives %q and %q", a.ArchiveID(), b.ArchiveID())
	}
	if other := openTestBackend(t, buildStoreSeed(t, 3, 6, 43)); other.ArchiveID() == a.ArchiveID() {
		t.Fatal("a store with a different seed has the same archive identity")
	}
	wider, err := OpenBackend(dir, BackendConfig{Interval: 2 * fixtureInterval})
	if err != nil {
		t.Fatal(err)
	}
	if wider.ArchiveID() == a.ArchiveID() {
		t.Fatal("a different Interval has the same archive identity")
	}
	pairs, _ := a.Store().PairKeys()
	windows := [][2]time.Duration{{0, -1}, {fixtureInterval, 4 * fixtureInterval}, {2 * fixtureInterval, -1}}
	for _, ep := range Endpoints {
		for _, p := range pairs {
			for _, w := range windows {
				var q PairQuery
				if ep != "pairs" && ep != "meta" {
					vals := Query{Endpoint: ep, Pair: p}.Values()
					vals.Set("from", fmt.Sprint(int64(w[0])))
					vals.Set("to", fmt.Sprint(int64(w[1])))
					var err error
					if q, err = ParsePairQuery(vals); err != nil {
						t.Fatal(err)
					}
				}
				b1, d1, err := a.Answer(context.Background(), ep, q)
				if err != nil {
					t.Fatalf("%s: %v", q.CanonicalKey(ep), err)
				}
				b2, d2, err := b.Answer(context.Background(), ep, q)
				if err != nil {
					t.Fatalf("%s: %v", q.CanonicalKey(ep), err)
				}
				if string(b1) != string(b2) || d1 != d2 {
					t.Fatalf("%s: backends disagree (%s vs %s)", q.CanonicalKey(ep), d1, d2)
				}
			}
		}
	}
}

func TestPairsAndMeta(t *testing.T) {
	const servers = 3
	be := openTestBackend(t, buildStore(t, servers, 4))
	pairs, err := be.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	// Full mesh, both protocols: n*(n-1) directed pairs, v4 and v6.
	want := servers * (servers - 1) * 2
	if pairs.Count != want || !pairs.Exhaustive {
		t.Fatalf("pairs = %d (exhaustive=%t), want %d exhaustive", pairs.Count, pairs.Exhaustive, want)
	}
	meta, err := be.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tool != "serve-test" || meta.Seed != 42 || meta.TopoDigest != "deadbeef" {
		t.Fatalf("meta provenance = %+v", meta)
	}
	if meta.Records == 0 || meta.MaxAtNS <= meta.MinAtNS {
		t.Fatalf("meta extent = %+v", meta)
	}
}

func TestSummaryReplay(t *testing.T) {
	be := openTestBackend(t, buildStore(t, 3, 8))
	resp, err := be.Summary(context.Background(), PairQuery{Src: 0, Dst: 1, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	// 8 rounds x (2 traceroutes + 1 ping) for the pair.
	if resp.Records != 24 {
		t.Fatalf("records = %d, want 24", resp.Records)
	}
	if len(resp.Analyses) == 0 {
		t.Fatalf("no operator statuses")
	}
	// Replay must be reproducible.
	again, err := be.Summary(context.Background(), PairQuery{Src: 0, Dst: 1, To: -1})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(resp)
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Fatalf("summary replay differs:\n%s\n%s", b1, b2)
	}
}

func TestParsePairQuery(t *testing.T) {
	q, err := ParsePairQuery(map[string][]string{
		"src": {"3"}, "dst": {"7"}, "v6": {"true"}, "from": {"12h"}, "to": {"86400000000000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := PairQuery{Src: 3, Dst: 7, V6: true, From: 12 * time.Hour, To: 24 * time.Hour}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("parsed %+v, want %+v", q, want)
	}
	for name, bad := range map[string]map[string][]string{
		"missing src":  {"dst": {"1"}},
		"bad v6":       {"src": {"1"}, "dst": {"2"}, "v6": {"maybe"}},
		"empty window": {"src": {"1"}, "dst": {"2"}, "from": {"2h"}, "to": {"1h"}},
	} {
		if _, err := ParsePairQuery(bad); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

// FuzzParsePairQuery feeds ParsePairQuery raw query strings, an input the
// service does not control. No input may panic, and every accepted query
// must re-parse from its CanonicalKey parameters to an equal PairQuery.
func FuzzParsePairQuery(f *testing.F) {
	pairs := []trace.PairKey{{SrcID: 0, DstID: 1}, {SrcID: 2, DstID: 1, V6: true}}
	for _, q := range Schedule(1, 0, pairs, 16, 0) {
		f.Add(q.Values().Encode())
	}
	for _, raw := range []string{
		"src=1&dst=2&to=-1",
		"src=1&dst=2&from=-3h",
		"src=1&dst=2&from=-5&to=-7",
		"src=1&dst=2&from=2h&to=1h",
		"src=1&dst=2&from=1h&to=1h",
		"src=1&dst=2&from=3h&to=14400000000000&step=90m",
		"src=1&dst=2&from=10800000000000&step=5400000000000",
		"src=+1&dst=02&v6=1&step=-1ns",
		"src=1&dst=2&to=9223372036854775807",
		"src=1&dst=2&from=9999999999h",
		"src=&dst=2",
		"src=1&dst=2&v6=maybe",
		"%zz",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := ParsePairQuery(v)
		if err != nil {
			return
		}
		_, params, _ := strings.Cut(q.CanonicalKey("series"), "?")
		cv, err := url.ParseQuery(params)
		if err != nil {
			t.Fatalf("canonical key of %q does not parse: %v", raw, err)
		}
		again, err := ParsePairQuery(cv)
		if err != nil {
			t.Fatalf("canonical key of %q rejected: %v", raw, err)
		}
		if again != q {
			t.Fatalf("%q parsed to %+v, its canonical key to %+v", raw, q, again)
		}
	})
}

func TestCanonicalKeyNormalizes(t *testing.T) {
	a, err := ParsePairQuery(map[string][]string{"src": {"1"}, "dst": {"2"}, "from": {"3h"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePairQuery(map[string][]string{"from": {"10800000000000"}, "dst": {"2"}, "src": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.CanonicalKey("series") != b.CanonicalKey("series") {
		t.Fatalf("equivalent queries got different keys:\n%s\n%s",
			a.CanonicalKey("series"), b.CanonicalKey("series"))
	}
	if a.CanonicalKey("series") == a.CanonicalKey("paths") {
		t.Fatal("endpoint not part of the canonical key")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	pairs := []trace.PairKey{
		{SrcID: 0, DstID: 1}, {SrcID: 1, DstID: 2}, {SrcID: 2, DstID: 0},
		{SrcID: 0, DstID: 2}, {SrcID: 1, DstID: 0, V6: true},
	}
	a := Schedule(7, 3, pairs, 200, 1.2)
	b := Schedule(7, 3, pairs, 200, 1.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, client) produced different schedules")
	}
	c := Schedule(7, 4, pairs, 200, 1.2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different clients produced identical schedules")
	}
	valid := map[string]bool{}
	for _, ep := range Endpoints {
		valid[ep] = true
	}
	hist := map[string]int{}
	for _, q := range a {
		if !valid[q.Endpoint] {
			t.Fatalf("unknown endpoint %q in schedule", q.Endpoint)
		}
		hist[q.Endpoint]++
	}
	if hist["series"] == 0 || hist["paths"] == 0 {
		t.Fatalf("degenerate endpoint mix: %v", hist)
	}
	// Zipf skew: the most popular pair must dominate the tail.
	counts := map[trace.PairKey]int{}
	for _, q := range a {
		counts[q.Pair]++
	}
	if counts[pairs[0]] <= counts[pairs[len(pairs)-1]] {
		t.Fatalf("no popularity skew: head=%d tail=%d", counts[pairs[0]], counts[pairs[len(pairs)-1]])
	}
}
