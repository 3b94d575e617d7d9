package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// synthCorpus builds a deterministic mixed record stream shaped like a
// campaign: rounds of monotonically increasing timestamps, v4/v6
// traceroutes of a directed pair adjacent within a round, pings mixed in.
func synthCorpus(seed int64, servers, days, roundsPerDay int) []any {
	rng := rand.New(rand.NewSource(seed))
	var out []any
	addr4 := func(id int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1})
	}
	addr6 := func(id int) netip.Addr {
		var b [16]byte
		b[0], b[1], b[14], b[15] = 0x24, 0x00, byte(id>>8), byte(id)
		return netip.AddrFrom16(b)
	}
	interval := 24 * time.Hour / time.Duration(roundsPerDay)
	for r := 0; r < days*roundsPerDay; r++ {
		at := time.Duration(r) * interval
		for s := 0; s < servers; s++ {
			for d := 0; d < servers; d++ {
				if s == d {
					continue
				}
				for _, v6 := range []bool{false, true} {
					tr := &trace.Traceroute{
						SrcID: s, DstID: d, V6: v6,
						Paris:    rng.Intn(2) == 0,
						At:       at,
						Complete: rng.Intn(10) > 0,
						RTT:      time.Duration(rng.Intn(200)) * time.Millisecond,
					}
					if v6 {
						tr.Src, tr.Dst = addr6(s), addr6(d)
					} else {
						tr.Src, tr.Dst = addr4(s), addr4(d)
					}
					hops := rng.Intn(6)
					for h := 0; h < hops; h++ {
						hop := trace.Hop{RTT: time.Duration(rng.Intn(80)) * time.Millisecond}
						if rng.Intn(5) > 0 {
							hop.Addr = addr4(1000 + rng.Intn(500))
						}
						tr.Hops = append(tr.Hops, hop)
					}
					out = append(out, tr)
				}
				if rng.Intn(3) == 0 {
					out = append(out, &trace.Ping{
						SrcID: s, DstID: d,
						Src: addr4(s), Dst: addr4(d),
						At:   at,
						RTT:  time.Duration(rng.Intn(120)) * time.Millisecond,
						Lost: rng.Intn(20) == 0,
					})
				}
			}
		}
	}
	return out
}

// recBytes is the canonical comparison form of a record: its binary frame.
func recBytes(t testing.TB, rec any) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	switch v := rec.(type) {
	case *trace.Traceroute:
		if err := w.WriteTraceroute(v); err != nil {
			t.Fatal(err)
		}
	case *trace.Ping:
		if err := w.WritePing(v); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown record type %T", rec)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func keyOf(rec any) trace.PairKey {
	switch v := rec.(type) {
	case *trace.Traceroute:
		return v.Key()
	case *trace.Ping:
		return v.Key()
	}
	panic("unknown record type")
}

// byPair groups a record stream into per-timeline frame sequences.
func byPair(t testing.TB, recs []any) map[trace.PairKey][]string {
	out := make(map[trace.PairKey][]string)
	for _, rec := range recs {
		k := keyOf(rec)
		out[k] = append(out[k], recBytes(t, rec))
	}
	return out
}

// collector gathers records in delivery order.
type collector struct{ recs []any }

func (c *collector) OnTraceroute(tr *trace.Traceroute) { c.recs = append(c.recs, tr) }
func (c *collector) OnPing(p *trace.Ping)              { c.recs = append(c.recs, p) }

// writeStore writes the corpus into a fresh store under t.TempDir.
func writeStore(t testing.TB, corpus []any, o Options) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "corpus.store")
	w, err := Create(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range corpus {
		switch v := rec.(type) {
		case *trace.Traceroute:
			err = w.WriteTraceroute(v)
		case *trace.Ping:
			err = w.WritePing(v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestScanMatchesFlat is the store-vs-flat equivalence: under a full Scan
// at any worker count, every timeline's record sequence must be
// byte-identical to a front-to-back read of the flat file.
func TestScanMatchesFlat(t *testing.T) {
	corpus := synthCorpus(1, 5, 4, 3)
	want := byPair(t, corpus)
	for _, compress := range []string{"", CompressionGzip} {
		dir := writeStore(t, corpus, Options{PairShards: 4, Compression: compress})
		for _, workers := range []int{1, 2, 8} {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var col collector
			if err := s.Scan(workers, &col); err != nil {
				t.Fatal(err)
			}
			if len(col.recs) != len(corpus) {
				t.Fatalf("compress=%q workers=%d: scanned %d records, want %d",
					compress, workers, len(col.recs), len(corpus))
			}
			got := byPair(t, col.recs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("compress=%q workers=%d: per-pair record sequences differ from flat read",
					compress, workers)
			}
		}
	}
}

// TestScanDeterministicOrder pins the global delivery order across worker
// counts (shard order is fixed, so the full stream must be identical).
func TestScanDeterministicOrder(t *testing.T) {
	corpus := synthCorpus(2, 4, 3, 2)
	dir := writeStore(t, corpus, Options{PairShards: 3})
	var ref []string
	for _, workers := range []int{1, 2, 8} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var col collector
		if err := s.Scan(workers, &col); err != nil {
			t.Fatal(err)
		}
		var stream []string
		for _, rec := range col.recs {
			stream = append(stream, recBytes(t, rec))
		}
		if ref == nil {
			ref = stream
		} else if !reflect.DeepEqual(ref, stream) {
			t.Fatalf("workers=%d: delivery order differs from workers=1", workers)
		}
	}
}

// TestPairsPushdown checks Pairs against a filtered flat read and asserts
// — via the store metrics — that pushdown reads strictly fewer bytes than
// a full scan and prunes shards through the index.
func TestPairsPushdown(t *testing.T) {
	corpus := synthCorpus(3, 6, 4, 3)
	dir := writeStore(t, corpus, Options{PairShards: 4})

	keys := []trace.PairKey{
		{SrcID: 1, DstID: 2, V6: false},
		{SrcID: 1, DstID: 2, V6: true},
		{SrcID: 4, DstID: 0, V6: false},
	}
	want := make(map[trace.PairKey][]string)
	for _, rec := range corpus {
		k := keyOf(rec)
		for _, wk := range keys {
			if k == wk {
				want[k] = append(want[k], recBytes(t, rec))
			}
		}
	}

	fullReg := obs.NewRegistry()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(fullReg)
	var full collector
	if err := s.Scan(4, &full); err != nil {
		t.Fatal(err)
	}
	fullBytes := fullReg.Counter(MetricBytesRead, "").Value()

	pairReg := obs.NewRegistry()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Instrument(pairReg)
	var col collector
	if err := s2.Pairs(4, keys, &col); err != nil {
		t.Fatal(err)
	}
	got := byPair(t, col.recs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs result differs from filtered flat read (%d vs %d timelines)", len(got), len(want))
	}

	pairBytes := pairReg.Counter(MetricBytesRead, "").Value()
	if pairBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("byte counters did not fire (full=%d pairs=%d)", fullBytes, pairBytes)
	}
	if pairBytes >= fullBytes {
		t.Fatalf("pushdown read %d bytes, full scan %d — want strictly fewer", pairBytes, fullBytes)
	}
	if pruned := pairReg.Counter(MetricShardsPruned, "").Value(); pruned == 0 {
		t.Fatal("pushdown pruned no shards")
	}
	if skipped := pairReg.Counter(MetricFramesFiltered, "").Value(); skipped == 0 {
		t.Fatal("pushdown decoded every frame (frame filter did not fire)")
	}
}

// TestPairsEmptyAndUnknown: no keys → no records, unknown keys → no
// records and (via pruning) no payload reads.
func TestPairsEmptyAndUnknown(t *testing.T) {
	corpus := synthCorpus(4, 3, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	var col collector
	if err := s.Pairs(2, nil, &col); err != nil {
		t.Fatal(err)
	}
	if len(col.recs) != 0 {
		t.Fatalf("empty key set delivered %d records", len(col.recs))
	}
	if err := s.Pairs(2, []trace.PairKey{{SrcID: 900, DstID: 901}}, &col); err != nil {
		t.Fatal(err)
	}
	if len(col.recs) != 0 {
		t.Fatalf("unknown key delivered %d records", len(col.recs))
	}
	if got := reg.Counter(MetricBytesRead, "").Value(); got != 0 {
		t.Fatalf("unknown key read %d payload bytes, want 0 (index should prune)", got)
	}
}

// TestCompact forces segment splits with a tiny open-shard budget, merges
// them, and checks the merged store scans identically.
func TestCompact(t *testing.T) {
	for _, compress := range []string{"", CompressionGzip} {
		corpus := synthCorpus(6, 5, 3, 3)
		want := byPair(t, corpus)
		dir := writeStore(t, corpus, Options{PairShards: 4, Compression: compress, MaxOpenShards: 1})
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		segmented := false
		for _, e := range s.Manifest().Shards {
			if e.Seq > 0 {
				segmented = true
			}
		}
		if !segmented {
			t.Fatalf("compress=%q: MaxOpenShards=1 produced no segment files", compress)
		}
		if err := Compact(dir); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range s2.Manifest().Shards {
			if e.Seq > 0 {
				t.Fatalf("compress=%q: segment %s survived Compact", compress, e.File)
			}
		}
		if got, want := s2.Manifest().Records, s.Manifest().Records; got != want {
			t.Fatalf("compress=%q: compacted manifest holds %d records, want %d", compress, got, want)
		}
		var col collector
		if err := s2.Scan(4, &col); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byPair(t, col.recs), want) {
			t.Fatalf("compress=%q: compacted store differs from corpus", compress)
		}
		// Pushdown still works against rebuilt indexes.
		var one collector
		k := trace.PairKey{SrcID: 0, DstID: 1}
		if err := s2.Pairs(2, []trace.PairKey{k}, &one); err != nil {
			t.Fatal(err)
		}
		if len(one.recs) != len(want[k]) {
			t.Fatalf("compress=%q: Pairs after Compact delivered %d records, want %d",
				compress, len(one.recs), len(want[k]))
		}
	}
}

// TestManifestMetadata checks the run provenance and the totals.
func TestManifestMetadata(t *testing.T) {
	corpus := synthCorpus(7, 3, 2, 2)
	dir := writeStore(t, corpus, Options{
		PairShards: 2, Tool: "test", Seed: 42, TopoDigest: "fnv1a:deadbeef",
	})
	if !IsStore(dir) {
		t.Fatal("IsStore is false on a freshly written store")
	}
	if IsStore(filepath.Dir(dir)) {
		t.Fatal("IsStore is true on the parent directory")
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "test" || m.Seed != 42 || m.TopoDigest != "fnv1a:deadbeef" {
		t.Fatalf("manifest provenance lost: %+v", m)
	}
	trs, pings := 0, 0
	for _, rec := range corpus {
		if _, ok := rec.(*trace.Traceroute); ok {
			trs++
		} else {
			pings++
		}
	}
	if m.Records != int64(len(corpus)) || m.Traceroutes != int64(trs) || m.Pings != int64(pings) {
		t.Fatalf("manifest totals %d/%d/%d, want %d/%d/%d",
			m.Records, m.Traceroutes, m.Pings, len(corpus), trs, pings)
	}
	var sum int64
	for _, e := range m.Shards {
		sum += e.Records
	}
	if sum != m.Records {
		t.Fatalf("shard records sum %d, manifest total %d", sum, m.Records)
	}
	min, max := m.Span()
	if min != 0 || max <= min {
		t.Fatalf("span [%v, %v] is not corpus-shaped", min, max)
	}
}

// TestWriterMisuse covers the error paths a CLI can hit.
func TestWriterMisuse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x.store")
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTraceroute(&trace.Traceroute{SrcID: 1, DstID: 2, At: -time.Hour}); err == nil {
		t.Fatal("negative timestamp accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePing(&trace.Ping{SrcID: 1, DstID: 2}); err == nil {
		t.Fatal("write after Close accepted")
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over an existing store accepted")
	}
	if _, err := Create(dir, Options{Compression: "zstd"}); err == nil {
		t.Fatal("unknown compression accepted")
	}
}

// TestOpenRejectsCorruption checks that a truncated shard or a manifest
// mismatch fails loudly at Open.
func TestOpenRejectsCorruption(t *testing.T) {
	corpus := synthCorpus(8, 3, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 2})
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, m.Shards[0].File)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a truncated shard")
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("restored store does not open: %v", err)
	}
	// A version-1 footer (no frame directory) is rejected by version.
	v1 := append([]byte(nil), data...)
	flen := int(binary.LittleEndian.Uint32(v1[len(v1)-trailerLen:]))
	v1[len(v1)-trailerLen-flen] = 1
	if err := os.WriteFile(victim, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 shard not rejected by version: %v", err)
	}
	// A footer whose directory extent disagrees with the file layout.
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteShard(t, victim, func(ix *shardIndex, dir []byte) []byte {
		ix.DirBytes++
		return dir
	})
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("misplaced directory not rejected: %v", err)
	}
	// A corrupt directory body: Open never reads it, so the store opens,
	// but a pair read of that shard fails rather than trust it.
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteShard(t, victim, func(ix *shardIndex, dir []byte) []byte {
		dir[0] ^= 0x7f // the key count
		return dir
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open read the directory: %v", err)
	}
	var col collector
	key := s.shards[0].ix.Exact[0]
	if err := s.Pair(key, 0, -1, &col); err == nil || !strings.Contains(err.Error(), m.Shards[0].File) {
		t.Fatalf("pair read through a corrupt directory: %v", err)
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A manifest that points outside the directory must be rejected.
	m.Shards[0].File = "../escape.shard"
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("path escape not rejected: %v", err)
	}
}

// TestIndexRoundTrip pins the footer encoding (the fuzz target explores
// the hostile side).
func TestIndexRoundTrip(t *testing.T) {
	exact := &shardIndex{
		Records: 5, Traceroutes: 3, Pings: 2,
		MinAt: time.Hour, MaxAt: 26 * time.Hour,
		PayloadBytes: 1234, RawBytes: 4096,
		Exact: []trace.PairKey{{SrcID: 1, DstID: 2}, {SrcID: 1, DstID: 2, V6: true}, {SrcID: 3, DstID: 1}},
	}
	var big []trace.PairKey
	for i := 0; i < exactPairCap+10; i++ {
		big = append(big, trace.PairKey{SrcID: i, DstID: i + 1})
	}
	exactList, bloom := pairSetOf(big)
	if exactList != nil || len(bloom) == 0 {
		t.Fatalf("pairSetOf did not switch to bloom above the cap")
	}
	blooming := &shardIndex{
		Records: 600, Traceroutes: 600,
		MinAt: 0, MaxAt: time.Hour,
		PayloadBytes: 9, RawBytes: 9,
		Bloom: bloom,
	}
	for name, ix := range map[string]*shardIndex{"exact": exact, "bloom": blooming} {
		got, err := decodeIndex(encodeIndex(ix))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, ix) {
			t.Fatalf("%s: round trip drifted:\n got %+v\nwant %+v", name, got, ix)
		}
	}
	// Exact membership is definitive both ways; bloom has no false negatives.
	if !exact.canContain(trace.PairKey{SrcID: 3, DstID: 1}) {
		t.Fatal("exact set dropped a member")
	}
	if exact.canContain(trace.PairKey{SrcID: 3, DstID: 1, V6: true}) {
		t.Fatal("exact set invented a member")
	}
	for _, k := range big {
		if !blooming.canContain(k) {
			t.Fatalf("bloom false negative on %+v", k)
		}
	}
}

// TestPairShardOfProtocolInvariant pins the property the streaming
// dualstack consumer depends on.
func TestPairShardOfProtocolInvariant(t *testing.T) {
	for i := 0; i < 100; i++ {
		k4 := trace.PairKey{SrcID: i * 3, DstID: i*7 + 1}
		k6 := k4
		k6.V6 = true
		for _, shards := range []int{1, 2, 8, 13} {
			if PairShardOf(k4, shards) != PairShardOf(k6, shards) {
				t.Fatalf("v4/v6 of %v map to different shards", k4)
			}
			if got := PairShardOf(k4, shards); got < 0 || got >= shards {
				t.Fatalf("shard %d out of range [0,%d)", got, shards)
			}
		}
	}
}

// TestPairPointLookup checks the single-pair point-lookup path against a
// filtered flat read, including time-window clipping.
func TestPairPointLookup(t *testing.T) {
	corpus := synthCorpus(11, 6, 4, 3)
	dir := writeStore(t, corpus, Options{PairShards: 4})
	k := trace.PairKey{SrcID: 2, DstID: 5}
	from, to := 24*time.Hour, 72*time.Hour
	var want []string
	for _, rec := range corpus {
		var at time.Duration
		switch v := rec.(type) {
		case *trace.Traceroute:
			at = v.At
		case *trace.Ping:
			at = v.At
		}
		if keyOf(rec) == k && at >= from && at < to {
			want = append(want, recBytes(t, rec))
		}
	}
	if len(want) == 0 {
		t.Fatal("corpus has no records in the probe window")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	if err := s.Pair(k, from, to, &col); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range col.recs {
		got = append(got, recBytes(t, rec))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("point lookup returned %d records, filtered flat read %d (or order differs)",
			len(got), len(want))
	}
	// Open-ended window (to < 0) must include the tail.
	var all collector
	if err := s.Pair(k, 0, -1, &all); err != nil {
		t.Fatal(err)
	}
	var full []string
	for _, rec := range corpus {
		if keyOf(rec) == k {
			full = append(full, recBytes(t, rec))
		}
	}
	var gotAll []string
	for _, rec := range all.recs {
		gotAll = append(gotAll, recBytes(t, rec))
	}
	if !reflect.DeepEqual(gotAll, full) {
		t.Fatalf("open-ended point lookup returned %d records, want %d", len(gotAll), len(full))
	}
}

// TestPairPointLookupPushdown asserts — via the store metrics — that the
// point-lookup path reads strictly fewer payload bytes than a full scan,
// prunes shards through the index (column, pair set, and time span), and
// skips non-matching frames without decoding them.
func TestPairPointLookupPushdown(t *testing.T) {
	corpus := synthCorpus(12, 6, 4, 3)
	dir := writeStore(t, corpus, Options{PairShards: 4})

	fullReg := obs.NewRegistry()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(fullReg)
	var full collector
	if err := s.Scan(4, &full); err != nil {
		t.Fatal(err)
	}
	fullBytes := fullReg.Counter(MetricBytesRead, "").Value()

	pairReg := obs.NewRegistry()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Instrument(pairReg)
	var col collector
	k := trace.PairKey{SrcID: 1, DstID: 4}
	if err := s2.Pair(k, 24*time.Hour, 48*time.Hour, &col); err != nil {
		t.Fatal(err)
	}
	if len(col.recs) == 0 {
		t.Fatal("point lookup delivered no records")
	}
	pairBytes := pairReg.Counter(MetricBytesRead, "").Value()
	if pairBytes <= 0 || pairBytes >= fullBytes {
		t.Fatalf("point lookup read %d bytes, full scan %d — want strictly fewer and nonzero",
			pairBytes, fullBytes)
	}
	if pruned := pairReg.Counter(MetricShardsPruned, "").Value(); pruned == 0 {
		t.Fatal("point lookup pruned no shards")
	}
	if skipped := pairReg.Counter(MetricFramesFiltered, "").Value(); skipped == 0 {
		t.Fatal("point lookup decoded every frame (frame filter did not fire)")
	}
	// The time window must also prune whole shards: a one-day window over a
	// four-day store leaves at least two days of this pair's column unread.
	scanned := pairReg.Counter(MetricShardsScanned, "").Value()
	if scanned == 0 {
		t.Fatal("no shards scanned")
	}
}

// TestPairKeys checks the footer-union pair listing on an exact-list store.
func TestPairKeys(t *testing.T) {
	corpus := synthCorpus(13, 4, 2, 2)
	dir := writeStore(t, corpus, Options{PairShards: 3})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, exhaustive := s.PairKeys()
	if !exhaustive {
		t.Fatal("small store should have exact footer pair lists")
	}
	want := make(map[trace.PairKey]struct{})
	for _, rec := range corpus {
		want[keyOf(rec)] = struct{}{}
	}
	if len(keys) != len(want) {
		t.Fatalf("PairKeys returned %d keys, corpus holds %d", len(keys), len(want))
	}
	for i := 1; i < len(keys); i++ {
		if !pairLess(keys[i-1], keys[i]) {
			t.Fatalf("PairKeys not sorted at %d", i)
		}
	}
}
