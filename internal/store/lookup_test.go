package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// atOf returns a record's virtual timestamp.
func atOf(rec any) time.Duration {
	switch v := rec.(type) {
	case *trace.Traceroute:
		return v.At
	case *trace.Ping:
		return v.At
	}
	panic("unknown record type")
}

// frames renders a record stream in its canonical comparison form.
func frames(t testing.TB, recs []any) []string {
	var out []string
	for _, rec := range recs {
		out = append(out, recBytes(t, rec))
	}
	return out
}

// filterScan is the reference every pushdown read must reproduce: the
// Scan stream of the same store, keeping the records whose key is in keys
// and whose timestamp is in [from, to) (to < 0: unbounded), in Scan order.
func filterScan(t testing.TB, scan []any, keys []trace.PairKey, from, to time.Duration) []string {
	want := make(map[trace.PairKey]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var out []string
	for _, rec := range scan {
		at := atOf(rec)
		if want[keyOf(rec)] && at >= from && (to < 0 || at < to) {
			out = append(out, recBytes(t, rec))
		}
	}
	return out
}

// writeCheckpointed writes the corpus with a checkpoint after every fifth,
// so cells that straddle a checkpoint end up split into several segments.
func writeCheckpointed(t testing.TB, corpus []any, o Options) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segmented.store")
	w, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range corpus {
		writeRec(t, w, rec)
		if (i+1)%(len(corpus)/5+1) == 0 {
			if _, err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// tearFirstShard delists the store's first shard and cuts its file inside
// the payload, as a writer killed mid-segment leaves it; Open repairs it.
// Half the payload, so a gzip stream loses data and not just its trailer.
func tearFirstShard(t *testing.T, dir string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Shards[0].File
	delist(t, dir, victim)
	path := filepath.Join(dir, victim)
	ix, err := readFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:int64(headerLen)+ix.PayloadBytes/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPairReadsMatchScan is the equivalence matrix for the pair read
// paths: {plain, gzip} × {exact pair list, bloom footer} × {fresh,
// compacted, torn-then-repaired}. In every cell Pair, Lookup and Pairs
// must deliver exactly the Scan records filtered by key (and window), in
// Scan order.
func TestPairReadsMatchScan(t *testing.T) {
	type pairSet struct {
		name                              string
		servers, days, roundsPerDay, cols int
	}
	sets := []pairSet{
		{"exact", 6, 3, 3, 4},
		// 24 servers: 1,104 timeline keys over 2 columns, so each shard
		// holds more than exactPairCap keys and its footer is a bloom.
		{"bloom", 24, 2, 2, 2},
	}
	windows := [][2]time.Duration{{0, -1}, {24 * time.Hour, 48 * time.Hour}, {12 * time.Hour, 36 * time.Hour}, {5 * time.Hour, 5 * time.Hour}}
	for _, ps := range sets {
		corpus := synthCorpus(31, ps.servers, ps.days, ps.roundsPerDay)
		for _, compress := range []string{"", CompressionGzip} {
			for _, state := range []string{"fresh", "compacted", "repaired"} {
				name := ps.name + "/" + compress + "/" + state
				o := Options{PairShards: ps.cols, Compression: compress}
				var dir string
				switch state {
				case "fresh":
					dir = writeStore(t, corpus, o)
				case "compacted":
					dir = writeCheckpointed(t, corpus, o)
					if m, err := ReadManifest(dir); err != nil || len(m.Shards) <= ps.days*ps.cols {
						t.Fatalf("%s: checkpoints left no split cells to compact (%v)", name, err)
					}
					if err := Compact(dir); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				case "repaired":
					dir = writeStore(t, corpus, o)
					tearFirstShard(t, dir)
				}
				s, err := Open(dir)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if state == "compacted" && len(s.Manifest().Shards) != ps.days*ps.cols {
					t.Fatalf("%s: %d shards after Compact, want %d", name, len(s.Manifest().Shards), ps.days*ps.cols)
				}
				if n := s.Manifest().Records; state == "repaired" && (n == 0 || n >= int64(len(corpus))) {
					t.Fatalf("%s: repaired store holds %d of %d records, want a strict prefix", name, n, len(corpus))
				}
				bloom := false
				for i := range s.shards {
					bloom = bloom || s.shards[i].ix.Exact == nil
				}
				if bloom != (ps.name == "bloom") {
					t.Fatalf("%s: bloom footer present = %t", name, bloom)
				}
				var scan collector
				if err := s.Scan(2, &scan); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if int64(len(scan.recs)) != s.Manifest().Records {
					t.Fatalf("%s: Scan delivered %d records, manifest says %d", name, len(scan.recs), s.Manifest().Records)
				}
				// Both protocols of three pairs, one key present in only
				// some shards' pair sets, and one key the store never saw.
				keys := []trace.PairKey{
					{SrcID: 0, DstID: 1}, {SrcID: 0, DstID: 1, V6: true},
					{SrcID: 2, DstID: 5}, {SrcID: 2, DstID: 5, V6: true},
					{SrcID: ps.servers - 1, DstID: 3}, {SrcID: ps.servers - 1, DstID: 3, V6: true},
					{SrcID: 900, DstID: 901},
				}
				for _, k := range keys {
					for _, w := range windows {
						var got collector
						if err := s.Pair(k, w[0], w[1], &got); err != nil {
							t.Fatalf("%s: Pair(%v, %v, %v): %v", name, k, w[0], w[1], err)
						}
						want := filterScan(t, scan.recs, []trace.PairKey{k}, w[0], w[1])
						if g := frames(t, got.recs); !reflect.DeepEqual(g, want) {
							t.Fatalf("%s: Pair(%v, %v, %v) delivered %d records, filtered Scan %d (or order differs)",
								name, k, w[0], w[1], len(g), len(want))
						}
					}
				}
				// Lookup over both protocols of a pair — the summary
				// endpoint's read — keeps their interleaving.
				for _, w := range windows {
					var got collector
					if err := s.Lookup(context.Background(), keys[:2], w[0], w[1], &got); err != nil {
						t.Fatalf("%s: Lookup: %v", name, err)
					}
					want := filterScan(t, scan.recs, keys[:2], w[0], w[1])
					if g := frames(t, got.recs); !reflect.DeepEqual(g, want) {
						t.Fatalf("%s: Lookup(%v, %v) delivered %d records, filtered Scan %d (or order differs)",
							name, w[0], w[1], len(g), len(want))
					}
				}
				want := filterScan(t, scan.recs, keys, 0, -1)
				if len(want) == 0 {
					t.Fatalf("%s: probe keys hold no records", name)
				}
				for _, workers := range []int{1, 3} {
					var got collector
					if err := s.Pairs(workers, keys, &got); err != nil {
						t.Fatalf("%s: Pairs: %v", name, err)
					}
					if g := frames(t, got.recs); !reflect.DeepEqual(g, want) {
						t.Fatalf("%s: Pairs(workers=%d) delivered %d records, filtered Scan %d (or order differs)",
							name, workers, len(g), len(want))
					}
				}
			}
		}
	}
}

// slowCounter is a consumer that lags behind the scan workers: it pauses
// at the first record of every shard and records how far the decoded
// shard count ran ahead of the shards it has been handed in full.
type slowCounter struct {
	scanned  *obs.Counter
	ends     []int64 // cumulative record count at the end of each shard
	seen     int64
	shard    int
	maxAhead int64
}

func (c *slowCounter) on() {
	for c.shard < len(c.ends) && c.seen >= c.ends[c.shard] {
		c.shard++
	}
	if c.shard == 0 || c.seen == c.ends[c.shard-1] {
		time.Sleep(2 * time.Millisecond)
	}
	if ahead := c.scanned.Value() - int64(c.shard); ahead > c.maxAhead {
		c.maxAhead = ahead
	}
	c.seen++
}

func (c *slowCounter) OnTraceroute(*trace.Traceroute) { c.on() }
func (c *slowCounter) OnPing(*trace.Ping)             { c.on() }

// TestScanReadAheadBounded: under a slow consumer, Scan holds at most
// workers+2 decoded shards that the consumer has not been handed in full.
func TestScanReadAheadBounded(t *testing.T) {
	corpus := synthCorpus(41, 4, 8, 2)
	dir := writeStore(t, corpus, Options{PairShards: 4})
	for _, workers := range []int{1, 3} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s.Instrument(reg)
		c := &slowCounter{scanned: reg.Counter(MetricShardsScanned, "")}
		var sum int64
		for _, sh := range s.shards {
			sum += sh.ix.Records
			c.ends = append(c.ends, sum)
		}
		if len(c.ends) < 4*(workers+2) {
			t.Fatalf("store has %d shards, too few to exercise the bound", len(c.ends))
		}
		if err := s.Scan(workers, c); err != nil {
			t.Fatal(err)
		}
		if c.seen != int64(len(corpus)) {
			t.Fatalf("workers=%d: scanned %d records, want %d", workers, c.seen, len(corpus))
		}
		if c.maxAhead > int64(workers+2) || c.maxAhead < 2 {
			t.Fatalf("workers=%d: decoded shards ran %d ahead of delivery, want 2..%d",
				workers, c.maxAhead, workers+2)
		}
	}
}

// TestPairReadsOnlyOwnFrames pins what a pair read costs: on a plain shard
// the directory plus the pair's own frames, on a gzip shard the directory
// plus the whole payload; every other frame of a scanned shard counts as
// filtered.
func TestPairReadsOnlyOwnFrames(t *testing.T) {
	corpus := synthCorpus(42, 6, 3, 3)
	k := trace.PairKey{SrcID: 3, DstID: 1, V6: true}
	var frameBytes int64
	for _, rec := range corpus {
		if keyOf(rec) == k {
			frameBytes += int64(len(recBytes(t, rec)))
		}
	}
	for _, compress := range []string{"", CompressionGzip} {
		s, err := Open(writeStore(t, corpus, Options{PairShards: 4, Compression: compress}))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s.Instrument(reg)
		var got collector
		if err := s.Pair(k, 0, -1, &got); err != nil {
			t.Fatal(err)
		}
		var dirBytes, payload, records int64
		for _, sh := range s.selectShards([]trace.PairKey{k}, 0, -1) {
			dirBytes += sh.ix.DirBytes
			payload += sh.ix.PayloadBytes
			records += sh.ix.Records
		}
		want := dirBytes + frameBytes
		if compress != "" {
			want = dirBytes + payload
		}
		if read := reg.Counter(MetricBytesRead, "").Value(); read != want {
			t.Fatalf("compress=%q: read %d bytes, want %d (directories %d)", compress, read, want, dirBytes)
		}
		if f := reg.Counter(MetricFramesFiltered, "").Value(); f != records-int64(len(got.recs)) {
			t.Fatalf("compress=%q: %d frames filtered, want %d", compress, f, records-int64(len(got.recs)))
		}
	}
}

// rewriteShard rewrites a shard file's directory and footer through edit,
// keeping its header and payload. edit may change the footer fields and
// returns the directory bytes to write.
func rewriteShard(t *testing.T, path string, edit func(ix *shardIndex, dir []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := readFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := edit(ix, append([]byte(nil), data[ix.DirOffset:ix.DirOffset+ix.DirBytes]...))
	buf := bytes.NewBuffer(append([]byte(nil), data[:ix.DirOffset]...))
	if _, err := writeTail(buf, ix, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyChecksDirectory: a directory that decodes cleanly but points
// a key at another key's frames fails Verify, and a pair read of it fails
// on the frame's key rather than deliver the wrong records.
func TestVerifyChecksDirectory(t *testing.T) {
	corpus := synthCorpus(43, 4, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Shards[0].File
	var swapped trace.PairKey
	rewriteShard(t, filepath.Join(dir, victim), func(ix *shardIndex, data []byte) []byte {
		ents, err := decodeDir(data, ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Swap the frames of two keys with equal frame counts: keys stay
		// sorted and the frames still tile the stream.
		for i := 1; i < len(ents); i++ {
			if len(ents[i].Frames) == len(ents[0].Frames) {
				ents[0].Frames, ents[i].Frames = ents[i].Frames, ents[0].Frames
				swapped = ents[0].Key
				break
			}
		}
		out := encodeDir(ents)
		ix.DirBytes = int64(len(out))
		return out
	})
	if swapped == (trace.PairKey{}) {
		t.Fatal("no two keys with equal frame counts to swap")
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), victim) {
		t.Fatalf("swapped directory passed verification: %s", rep)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	if err := s.Pair(swapped, 0, -1, &col); err == nil || !strings.Contains(err.Error(), "directory lists") {
		t.Fatalf("pair read through a swapped directory: %v (%d records)", err, len(col.recs))
	}
}
