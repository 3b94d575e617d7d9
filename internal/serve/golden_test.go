package serve

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.txt from the current code")

// goldenPath holds one "<canonical key> <digest>" line per answer.
const goldenPath = "testdata/golden_digests.txt"

// goldenWindows is the full window plus three distinct seeded whole-day
// windows, none of them the full span, over a days-long fixture.
func goldenWindows(days int) [][2]time.Duration {
	rng := rand.New(rand.NewSource(16))
	out := [][2]time.Duration{{0, -1}}
	seen := map[[2]int]bool{{0, days}: true}
	for len(out) < 4 {
		d1 := rng.Intn(days)
		d2 := d1 + 1 + rng.Intn(days-d1)
		if seen[[2]int{d1, d2}] {
			continue
		}
		seen[[2]int{d1, d2}] = true
		out = append(out, [2]time.Duration{time.Duration(d1) * 24 * time.Hour, time.Duration(d2) * 24 * time.Hour})
	}
	return out
}

// TestGoldenDigests pins the X-S2S-Digest of every endpoint × every pair
// × {full window, three seeded day windows} over a four-day fixture. The
// digests are a pure function of the records each answer reads, so any
// change to how the store locates, filters or orders a pair's records
// that alters an answer shows up here. Regenerate with -update only when
// an answer is meant to change.
func TestGoldenDigests(t *testing.T) {
	const servers, days = 4, 4
	be := openTestBackend(t, buildStore(t, servers, days*int(24*time.Hour/fixtureInterval)))
	pairs, exhaustive := be.Store().PairKeys()
	if !exhaustive || len(pairs) != servers*(servers-1)*2 {
		t.Fatalf("fixture lists %d pairs (exhaustive=%t)", len(pairs), exhaustive)
	}
	var got []string
	for _, ep := range Endpoints {
		if ep == "pairs" || ep == "meta" {
			_, d, err := be.Answer(context.Background(), ep, PairQuery{})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ep+" "+d)
			continue
		}
		for _, p := range pairs {
			for _, w := range goldenWindows(days) {
				vals := Query{Endpoint: ep, Pair: p}.Values()
				vals.Set("from", fmt.Sprint(int64(w[0])))
				vals.Set("to", fmt.Sprint(int64(w[1])))
				q, err := ParsePairQuery(vals)
				if err != nil {
					t.Fatal(err)
				}
				_, d, err := be.Answer(context.Background(), ep, q)
				if err != nil {
					t.Fatalf("%s: %v", q.CanonicalKey(ep), err)
				}
				got = append(got, q.CanonicalKey(ep)+" "+d)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, golden file holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer %d: got %q, golden %q", i, got[i], want[i])
		}
	}
}
