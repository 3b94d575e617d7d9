package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// shardInfo is one shard file with its decoded footer.
type shardInfo struct {
	ShardEntry
	ix *shardIndex
}

// Store is an opened dataset store. Reads are safe for concurrent use;
// consumers passed to Scan/Pairs/Lookup are always called from the
// calling goroutine, in deterministic shard order.
type Store struct {
	dir    string
	man    *Manifest
	shards []shardInfo

	scannedC  *obs.Counter
	prunedC   *obs.Counter
	bytesC    *obs.Counter
	recordsC  *obs.Counter
	filteredC *obs.Counter
	rec       *flight.Recorder
}

// Open reads the manifest and every shard footer of a store directory.
// Footers are small (counts, span, pair set), so opening stays cheap even
// when the payloads do not fit in RAM.
//
// Open also recovers crash debris: segment files a killed writer
// finalized after its last manifest write are adopted, and the torn
// segment it was writing is truncated to its decodable prefix and
// adopted too. The in-memory manifest reflects what is actually readable;
// the on-disk manifest is left untouched (use Resume to continue writing,
// or Verify to audit without modifying anything).
func Open(dir string) (*Store, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: man, shards: make([]shardInfo, 0, len(man.Shards))}
	for _, e := range man.Shards {
		ix, err := readFooter(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("store: shard %s: %w", e.File, err)
		}
		if ix.Records != e.Records {
			return nil, fmt.Errorf("store: shard %s: footer holds %d records, manifest says %d",
				e.File, ix.Records, e.Records)
		}
		s.shards = append(s.shards, shardInfo{ShardEntry: e, ix: ix})
	}
	adopted, err := adoptOrphans(dir, man)
	if err != nil {
		return nil, err
	}
	for _, sh := range adopted {
		s.shards = append(s.shards, sh)
		man.Shards = append(man.Shards, sh.ShardEntry)
		man.Records += sh.ix.Records
		man.Traceroutes += sh.ix.Traceroutes
		man.Pings += sh.ix.Pings
	}
	if len(adopted) > 0 {
		sortShards(man.Shards)
		sort.Slice(s.shards, func(i, j int) bool {
			a, b := s.shards[i], s.shards[j]
			if a.Day != b.Day {
				return a.Day < b.Day
			}
			if a.PairShard != b.PairShard {
				return a.PairShard < b.PairShard
			}
			return a.Seq < b.Seq
		})
	}
	return s, nil
}

// Manifest returns the store manifest (shared, do not mutate).
func (s *Store) Manifest() *Manifest { return s.man }

// Instrument registers read-side telemetry: shards scanned vs pruned,
// payload and directory bytes read off disk, records delivered, frames a
// pair read skipped.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.scannedC = reg.Counter(MetricShardsScanned, "shard payloads a store read decoded")
	s.prunedC = reg.Counter(MetricShardsPruned, "shards a store read skipped via the index")
	s.bytesC = reg.Counter(MetricBytesRead, "payload and frame-directory bytes a store read off disk")
	s.recordsC = reg.Counter(MetricRecordsRead, "records a store read delivered")
	s.filteredC = reg.Counter(MetricFramesFiltered, "frames of opened shards a pair read did not deliver (skipped via the frame directory or outside the window)")
}

// Trace records one flight span per shard scan.
func (s *Store) Trace(rec *flight.Recorder) { s.rec = rec }

// readFooter opens a shard file and decodes its footer index.
func readFooter(path string) (*shardIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return footerAt(f, fi.Size())
}

// footerAt decodes the footer of the size-byte shard file r and checks it
// against the file layout. It reads the header, trailer and footer only:
// the frame directory is left on disk for pair reads to fetch.
func footerAt(r io.ReaderAt, size int64) (*shardIndex, error) {
	if size < int64(headerLen+trailerLen) {
		return nil, fmt.Errorf("file too small (%d bytes)", size)
	}
	var hdr [headerLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("bad shard magic")
	}
	var tr [trailerLen]byte
	if _, err := r.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, err
	}
	if string(tr[4:]) != trailerMagic {
		return nil, fmt.Errorf("bad trailer magic")
	}
	flen := int64(binary.LittleEndian.Uint32(tr[:4]))
	if flen <= 0 || flen > size-int64(headerLen+trailerLen) {
		return nil, fmt.Errorf("bad footer length %d", flen)
	}
	footer := make([]byte, flen)
	if _, err := r.ReadAt(footer, size-trailerLen-flen); err != nil {
		return nil, err
	}
	ix, err := decodeIndex(footer)
	if err != nil {
		return nil, err
	}
	if ix.DirOffset != int64(headerLen)+ix.PayloadBytes {
		return nil, fmt.Errorf("footer directory offset %d does not follow the %d-byte payload", ix.DirOffset, ix.PayloadBytes)
	}
	if want := size - int64(headerLen) - flen - trailerLen; ix.PayloadBytes+ix.DirBytes != want {
		return nil, fmt.Errorf("footer payload+directory size %d+%d disagrees with file layout %d",
			ix.PayloadBytes, ix.DirBytes, want)
	}
	ix.gzip = hdr[len(shardMagic)]&flagGzip != 0
	if !ix.gzip && ix.RawBytes != ix.PayloadBytes {
		return nil, fmt.Errorf("uncompressed shard's raw size %d differs from its payload size %d", ix.RawBytes, ix.PayloadBytes)
	}
	return ix, nil
}

// decodeShard reads one shard whole and returns its records in write
// order. This is Scan's path: it never reads the frame directory.
func (s *Store) decodeShard(sh *shardInfo) ([]any, error) {
	sp := s.rec.Begin(flight.PhShardScan, sh.ix.MinAt)
	disk, payload, err := readShardBytes(filepath.Join(s.dir, sh.File), sh.ix)
	if err != nil {
		sp.End(flight.Attrs{S: sh.File})
		return nil, fmt.Errorf("store: shard %s: %w", sh.File, err)
	}
	s.bytesC.Add(int64(len(disk)))
	// Frames decode in place with trace.DecodeFrame: the payload is
	// already in memory, so no per-frame reader or scratch allocations —
	// only the records themselves.
	out := make([]any, 0, sh.ix.Records)
	for off := 0; off < len(payload); {
		rec, n, err := trace.DecodeFrame(payload[off:])
		if err != nil {
			sp.End(flight.Attrs{S: sh.File})
			return nil, fmt.Errorf("store: shard %s: frame at %d: %w", sh.File, off, err)
		}
		out = append(out, rec)
		off += n
	}
	s.scannedC.Inc()
	s.recordsC.Add(int64(len(out)))
	sp.End(flight.Attrs{S: sh.File, N: int64(len(out)), M: sh.ix.PayloadBytes})
	return out, nil
}

// seekShard returns the records of the keys in want (sorted by pairLess)
// with At in [from, to) from one shard, in write order, reading only the
// frame directory and those keys' frames. to < 0 means no upper bound.
func (s *Store) seekShard(sh *shardInfo, want []trace.PairKey, from, to time.Duration) ([]any, error) {
	sp := s.rec.Begin(flight.PhShardScan, sh.ix.MinAt)
	recs, read, err := seekFrames(filepath.Join(s.dir, sh.File), sh.ix, want, from, to)
	s.bytesC.Add(read)
	if err != nil {
		sp.End(flight.Attrs{S: sh.File})
		return nil, fmt.Errorf("store: shard %s: %w", sh.File, err)
	}
	// Frames the directory let the read skip count as filtered too.
	s.filteredC.Add(sh.ix.Records - int64(len(recs)))
	s.scannedC.Inc()
	s.recordsC.Add(int64(len(recs)))
	sp.End(flight.Attrs{S: sh.File, N: int64(len(recs)), M: read})
	return recs, nil
}

// keyedRange is a directory frame tagged with the key it was listed under.
type keyedRange struct {
	frameRange
	key trace.PairKey
}

// seekFrames does seekShard's I/O and decoding and also returns the bytes
// it read off disk. A plain shard costs one ReadAt of the directory plus
// one per run of adjacent wanted frames; a gzip shard still inflates its
// whole payload and slices that through the same directory, so only the
// byte source differs between the two.
func seekFrames(path string, ix *shardIndex, want []trace.PairKey, from, to time.Duration) ([]any, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	dir := make([]byte, ix.DirBytes)
	if _, err := f.ReadAt(dir, ix.DirOffset); err != nil {
		return nil, 0, fmt.Errorf("directory: %w", err)
	}
	read := ix.DirBytes
	ents, err := decodeDir(dir, ix, want)
	if err != nil {
		return nil, read, err
	}
	var ranges []keyedRange
	for _, e := range ents {
		for _, fr := range e.Frames {
			ranges = append(ranges, keyedRange{frameRange: fr, key: e.Key})
		}
	}
	if len(ents) > 1 {
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].Off < ranges[j].Off })
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Off < ranges[i-1].Off+ranges[i-1].Len {
				return nil, read, fmt.Errorf("directory frames overlap at raw offset %d", ranges[i].Off)
			}
		}
	}
	if len(ranges) == 0 {
		return nil, read, nil
	}
	// src holds the wanted frames; each range's Off is rebased into it.
	var src []byte
	if ix.gzip {
		disk := make([]byte, ix.PayloadBytes)
		if _, err := f.ReadAt(disk, int64(headerLen)); err != nil {
			return nil, read, err
		}
		read += ix.PayloadBytes
		if src, err = inflate(disk, ix.RawBytes); err != nil {
			return nil, read, err
		}
	} else {
		var total int64
		for _, r := range ranges {
			total += r.Len
		}
		src = make([]byte, total)
		pos := int64(0)
		for i := 0; i < len(ranges); {
			start, end := ranges[i].Off, ranges[i].Off+ranges[i].Len
			j := i + 1
			for j < len(ranges) && ranges[j].Off == end {
				end += ranges[j].Len
				j++
			}
			if _, err := f.ReadAt(src[pos:pos+end-start], int64(headerLen)+start); err != nil {
				return nil, read, err
			}
			read += end - start
			for ; i < j; i++ {
				ranges[i].Off = pos + ranges[i].Off - start
			}
			pos += end - start
		}
	}
	var out []any
	for _, r := range ranges {
		frame := src[r.Off : r.Off+r.Len]
		h, err := trace.ParseFrameHeader(frame)
		if err != nil {
			return nil, read, fmt.Errorf("directory frame of %v: %w", r.key, err)
		}
		if h.Key != r.key || int64(h.Len) != r.Len {
			return nil, read, fmt.Errorf("directory lists a %d-byte frame of %v where the payload holds a %d-byte frame of %v",
				r.Len, r.key, h.Len, h.Key)
		}
		if h.At < from || (to >= 0 && h.At >= to) {
			continue
		}
		rec, _, err := trace.DecodeFrame(frame)
		if err != nil {
			return nil, read, fmt.Errorf("directory frame of %v: %w", r.key, err)
		}
		out = append(out, rec)
	}
	return out, read, nil
}

// normalizeWorkers mirrors the campaign engine's convention: <= 0 selects
// all cores, anything else is taken as given (capped to the shard count by
// the caller's loop structure anyway).
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// deliver decodes the selected shards on a worker pool and hands records
// to c in selection order. Per-pair record order is preserved: a pair's
// records live in one pair-shard column, columns are delivered day by day,
// and within a shard records keep write order.
//
// Read-ahead is bounded: at most workers+2 shards are decoded (or being
// decoded) and not yet handed over, however slow the consumer. A worker
// takes a slot before it claims a shard index and the delivery loop frees
// it once that shard's records are delivered. Indices are claimed in
// order, so the shard the loop waits on is always claimed by a worker that
// already holds its slot: the order cannot deadlock.
func (s *Store) deliver(ctx context.Context, selected []*shardInfo, workers int, decode func(*shardInfo) ([]any, error), c Consumer) error {
	if len(selected) == 0 {
		return nil
	}
	workers = normalizeWorkers(workers)
	if workers > len(selected) {
		workers = len(selected)
	}
	type batch struct {
		recs []any
		err  error
	}
	out := make([]chan batch, len(selected))
	for i := range out {
		out[i] = make(chan batch, 1)
	}
	slots := make(chan struct{}, workers+2)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slots <- struct{}{}
				i := int(next.Add(1)) - 1
				if i >= len(selected) {
					<-slots
					return
				}
				// A canceled caller stops paying for decodes; shards already
				// claimed still drain through the ordered delivery loop.
				if err := ctx.Err(); err != nil {
					out[i] <- batch{err: err}
					continue
				}
				recs, err := decode(selected[i])
				out[i] <- batch{recs: recs, err: err}
			}
		}()
	}
	var firstErr error
	for i := range out {
		b := <-out[i]
		if b.err != nil && firstErr == nil {
			firstErr = b.err
		}
		if firstErr == nil {
			emit(b.recs, c)
		}
		// After an error, keep draining workers but deliver nothing more.
		<-slots
	}
	wg.Wait()
	return firstErr
}

// emit hands records to c in order.
func emit(recs []any, c Consumer) {
	for _, rec := range recs {
		switch v := rec.(type) {
		case *trace.Traceroute:
			c.OnTraceroute(v)
		case *trace.Ping:
			c.OnPing(v)
		}
	}
}

// Scan streams every record of the store to c on a pool of workers.
func (s *Store) Scan(workers int, c Consumer) error {
	selected := make([]*shardInfo, len(s.shards))
	for i := range s.shards {
		selected[i] = &s.shards[i]
	}
	return s.deliver(context.Background(), selected, workers, s.decodeShard, c)
}

// sortedKeys returns a copy of keys sorted by pairLess, the order
// decodeDir merges against.
func sortedKeys(keys []trace.PairKey) []trace.PairKey {
	out := append([]trace.PairKey(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

// selectShards returns, in delivery order, the shards that may hold
// records of keys (sorted) with At in [from, to), counting the rest as
// pruned: a shard must be in one of the keys' pair-shard columns, its
// footer pair set must admit one of them, and its time span must meet the
// window. to < 0 means no upper bound.
func (s *Store) selectShards(keys []trace.PairKey, from, to time.Duration) []*shardInfo {
	var selected []*shardInfo
	for i := range s.shards {
		sh := &s.shards[i]
		hit := false
		for _, k := range keys {
			if sh.PairShard == PairShardOf(k, s.man.PairShards) && sh.ix.canContain(k) {
				hit = true
				break
			}
		}
		if !hit || sh.ix.MaxAt < from || (to >= 0 && sh.ix.MinAt >= to) {
			s.prunedC.Inc()
			continue
		}
		selected = append(selected, sh)
	}
	return selected
}

// Pairs streams only the records of the requested timeline keys, opening
// just the shards whose index can contain them (pair-shard column first,
// then the footer's exact list or bloom filter) and, within a shard,
// reading only those keys' frames through the frame directory.
func (s *Store) Pairs(workers int, keys []trace.PairKey, c Consumer) error {
	return s.PairsCtx(context.Background(), workers, keys, c)
}

// PairsCtx is Pairs under a context: cancellation stops further shard
// reads and surfaces ctx.Err(). Records already read when the context
// fires may still be delivered.
func (s *Store) PairsCtx(ctx context.Context, workers int, keys []trace.PairKey, c Consumer) error {
	if len(keys) == 0 {
		return nil
	}
	want := sortedKeys(keys)
	return s.deliver(ctx, s.selectShards(want, 0, -1), workers, func(sh *shardInfo) ([]any, error) {
		return s.seekShard(sh, want, 0, -1)
	}, c)
}

// Pair streams the records of exactly one timeline key with At in
// [from, to), in write order, to c. to < 0 means no upper bound.
//
// This is the query service's point-lookup path (see Lookup): shards
// outside the pair's column, without the key in their footer pair set, or
// outside the time window are pruned unopened, and within a shard only
// the pair's own frames are read (asserted byte-for-byte by
// TestPairPointLookupPushdown).
func (s *Store) Pair(k trace.PairKey, from, to time.Duration, c Consumer) error {
	return s.PairCtx(context.Background(), k, from, to, c)
}

// PairCtx is Pair under a context.
func (s *Store) PairCtx(ctx context.Context, k trace.PairKey, from, to time.Duration, c Consumer) error {
	return s.Lookup(ctx, []trace.PairKey{k}, from, to, c)
}

// Lookup streams the records of keys with At in [from, to) to c, in shard
// order and write order within a shard, so interleaved keys keep their
// relative order — the v4 and v6 timelines of a pair share a pair-shard
// column, and a lookup of both sees them round-adjacent as a live
// campaign did. to < 0 means no upper bound.
//
// Unlike Pairs it never spins up a worker pool: a pair's records live in
// one column, so the work is a handful of sequential shard reads, each a
// directory read plus the wanted frames. ctx is checked between shards, so
// an abandoned query stops within one shard's work.
func (s *Store) Lookup(ctx context.Context, keys []trace.PairKey, from, to time.Duration, c Consumer) error {
	if len(keys) == 0 {
		return nil
	}
	want := sortedKeys(keys)
	for _, sh := range s.selectShards(want, from, to) {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := s.seekShard(sh, want, from, to)
		if err != nil {
			return err
		}
		emit(recs, c)
	}
	return nil
}

// PairKeys returns the sorted union of the distinct timeline keys recorded
// in the shard footers. exhaustive is false when any non-empty shard's
// footer holds a bloom filter instead of an exact pair list — the returned
// keys are then a subset of the store's population.
func (s *Store) PairKeys() (keys []trace.PairKey, exhaustive bool) {
	set := make(map[trace.PairKey]struct{})
	exhaustive = true
	for i := range s.shards {
		ix := s.shards[i].ix
		if ix.Exact == nil {
			if ix.Records > 0 {
				exhaustive = false
			}
			continue
		}
		for _, k := range ix.Exact {
			set[k] = struct{}{}
		}
	}
	keys = make([]trace.PairKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pairLess(keys[i], keys[j]) })
	return keys, exhaustive
}
