package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// FuzzShardIndex throws arbitrary bytes at the footer decoder (it must
// reject or decode, never panic) and round-trips every successful decode:
// re-encoding a decoded index and decoding again must reproduce it. The
// same bytes are then read as a whole shard file — footer first, then the
// frame directory it locates — and every directory the decoder accepts
// must tile the stream as the footer describes and round-trip too.
func FuzzShardIndex(f *testing.F) {
	seedIxs := []*shardIndex{
		{Records: 1, Traceroutes: 1, PayloadBytes: 10, RawBytes: 10,
			Exact: []trace.PairKey{{SrcID: 1, DstID: 2}}},
		{Records: 4, Traceroutes: 2, Pings: 2, MinAt: time.Hour, MaxAt: 30 * time.Hour,
			PayloadBytes: 512, RawBytes: 900,
			Exact: []trace.PairKey{{SrcID: 0, DstID: 7}, {SrcID: 0, DstID: 7, V6: true}, {SrcID: 3, DstID: 3}}},
		{Records: 1000, Pings: 1000, MaxAt: time.Minute,
			PayloadBytes: 1 << 20, RawBytes: 1 << 21,
			Bloom: newBloom([]trace.PairKey{{SrcID: 1, DstID: 2}, {SrcID: 2, DstID: 1}})},
	}
	for _, ix := range seedIxs {
		f.Add(encodeIndex(ix))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// Whole shard files, plain and gzip.
	for _, compress := range []string{"", CompressionGzip} {
		dir := writeStore(f, synthCorpus(9, 3, 1, 2), Options{PairShards: 1, Compression: compress})
		m, err := ReadManifest(dir)
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, m.Shards[0].File))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if ix, err := decodeIndex(data); err == nil {
			again, err := decodeIndex(encodeIndex(ix))
			if err != nil {
				t.Fatalf("re-encode of a valid index does not decode: %v", err)
			}
			if !reflect.DeepEqual(ix, again) {
				t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", ix, again)
			}
			if ix.Records != ix.Traceroutes+ix.Pings {
				t.Fatalf("decoder accepted inconsistent counts: %d != %d + %d",
					ix.Records, ix.Traceroutes, ix.Pings)
			}
		}

		ix, err := footerAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		raw := data[ix.DirOffset : ix.DirOffset+ix.DirBytes]
		ents, err := decodeDir(raw, ix, nil)
		if err != nil {
			return
		}
		var frames, total int64
		for i, e := range ents {
			if i > 0 && !pairLess(ents[i-1].Key, e.Key) {
				t.Fatalf("decoder accepted unsorted keys at %d", i)
			}
			end := int64(0)
			for _, fr := range e.Frames {
				if fr.Len <= 0 || fr.Off < end || fr.Off+fr.Len > ix.RawBytes {
					t.Fatalf("decoder accepted frame %+v of %v after %d in a %d-byte stream", fr, e.Key, end, ix.RawBytes)
				}
				end = fr.Off + fr.Len
				total += fr.Len
			}
			frames += int64(len(e.Frames))
		}
		if frames != ix.Records || total != ix.RawBytes {
			t.Fatalf("decoder accepted %d frames over %d bytes for %d records over %d", frames, total, ix.Records, ix.RawBytes)
		}
		again, err := decodeDir(encodeDir(ents), ix, nil)
		if err != nil || !reflect.DeepEqual(ents, again) {
			t.Fatalf("directory round trip drifted (%v)", err)
		}
		if len(ents) > 0 {
			mid := ents[len(ents)/2]
			one, err := decodeDir(raw, ix, []trace.PairKey{mid.Key})
			if err != nil || !reflect.DeepEqual(one, []dirEntry{mid}) {
				t.Fatalf("filtered decode of %v returned %+v (%v)", mid.Key, one, err)
			}
		}
	})
}

// FuzzShardName guards the writer's file naming against manifest
// validation: every name the writer can emit must survive ReadManifest's
// path checks (no separators, no escapes).
func FuzzShardName(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(484, 7, 3)
	f.Add(99999, 99, 99)
	f.Fuzz(func(t *testing.T, day, ps, seq int) {
		if day < 0 || ps < 0 || seq < 0 {
			return
		}
		name := shardName(day, ps, seq)
		if bytes.ContainsAny([]byte(name), "/\\") || name == "" {
			t.Fatalf("shardName(%d,%d,%d) = %q contains a path separator", day, ps, seq, name)
		}
	})
}

// FuzzReadManifest feeds ReadManifest arbitrary manifest files, an input
// a reader does not control. No input may panic; every accepted manifest
// must write and read back to an equal value; and Open on a directory
// holding only that manifest must not panic, and must fail when the
// manifest lists a shard, since no shard file exists.
func FuzzReadManifest(f *testing.F) {
	for _, compress := range []string{"", CompressionGzip} {
		dir := writeStore(f, synthCorpus(9, 3, 2, 2), Options{PairShards: 2, Compression: compress})
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"day_length_ns":1,"pair_shards":1,"shards":[]}`))
	f.Add([]byte(`{"version":1,"day_length_ns":1,"pair_shards":1,"shards":[{"file":"../x"}]}`))
	f.Add([]byte(`{"version":1,"day_length_ns":1,"pair_shards":1,"shards":[{"file":"a","day":-1},{"file":"a","day":-1}]}`))
	f.Add([]byte(`{"version":1,"day_length_ns":-5,"pair_shards":0}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		again := t.TempDir()
		if err := WriteManifest(again, m); err != nil {
			t.Fatalf("accepted manifest does not write: %v", err)
		}
		back, err := ReadManifest(again)
		if err != nil {
			t.Fatalf("written manifest does not read: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("manifest changed across write and read:\n%+v\n%+v", m, back)
		}
		if _, err := Open(dir); err == nil && len(m.Shards) > 0 {
			t.Fatalf("Open succeeded on a manifest listing %d shards and no shard files", len(m.Shards))
		}
	})
}
