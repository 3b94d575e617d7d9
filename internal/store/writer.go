package store

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// countWriter counts bytes flowing through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type cellID struct{ day, ps int }

// shardWriter is one open shard segment.
type shardWriter struct {
	cell cellID
	seq  int
	name string

	file *os.File
	disk *countWriter // payload bytes on disk (post-compression)
	gz   *gzip.Writer // nil when uncompressed
	bw   *trace.BinaryWriter

	b *shardBuilder
	// ticket orders shards for least-recently-written eviction.
	ticket int64
}

// Writer routes records into shard files at write time and finalizes the
// manifest on Close. It is not safe for concurrent use: campaigns deliver
// records from one goroutine (the engine restores order before delivery),
// and the writer relies on that.
type Writer struct {
	dir    string
	opts   Options
	open   map[cellID]*shardWriter
	seqs   map[cellID]int
	done   []ShardEntry
	clock  int64
	closed bool

	records, traceroutes, pings int64

	shardsC  *obs.Counter
	recordsC *obs.Counter
	bytesC   *obs.Counter
}

// Create makes dir (which must not already contain a store) and returns a
// Writer over it.
func Create(dir string, o Options) (*Writer, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if IsStore(dir) {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:  dir,
		opts: opts,
		open: make(map[cellID]*shardWriter),
		seqs: make(map[cellID]int),
	}
	// Write the (empty) manifest immediately so a crash at any later
	// instant leaves a readable store: uncommitted segment files are
	// recovered or discarded against it (see Open and Resume).
	if err := WriteManifest(dir, w.manifest()); err != nil {
		return nil, err
	}
	return w, nil
}

// SetProvenance records the run identity written into the manifest at
// Close. It exists for callers (s2sreport) whose topology digest is only
// known after the writer must already be wired into a campaign.
func (w *Writer) SetProvenance(tool string, seed int64, topoDigest string) {
	w.opts.Tool, w.opts.Seed, w.opts.TopoDigest = tool, seed, topoDigest
}

// Instrument registers write-side telemetry: shards finalized, records
// routed, payload bytes on disk.
func (w *Writer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.shardsC = reg.Counter(MetricShardsWritten, "shard files the store writer finalized")
	w.recordsC = reg.Counter(MetricRecordsWritten, "records routed into store shards")
	w.bytesC = reg.Counter(MetricBytesWritten, "payload and frame-directory bytes written to store shards (on-disk size)")
}

// shardFor returns the open segment for a record, opening (and evicting)
// as needed.
func (w *Writer) shardFor(k trace.PairKey, at time.Duration) (*shardWriter, error) {
	if at < 0 {
		return nil, fmt.Errorf("store: negative record timestamp %v", at)
	}
	day := 0
	if w.opts.DayLength > 0 {
		day = int(at / w.opts.DayLength)
	}
	cell := cellID{day: day, ps: PairShardOf(k, w.opts.PairShards)}
	if sw := w.open[cell]; sw != nil {
		return sw, nil
	}
	if len(w.open) >= w.opts.MaxOpenShards {
		if err := w.evictOldest(); err != nil {
			return nil, err
		}
	}
	seq := w.seqs[cell]
	w.seqs[cell] = seq + 1
	sw, err := w.openShard(cell, seq)
	if err != nil {
		return nil, err
	}
	w.open[cell] = sw
	return sw, nil
}

func (w *Writer) openShard(cell cellID, seq int) (*shardWriter, error) {
	name := shardName(cell.day, cell.ps, seq)
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return nil, err
	}
	flags := byte(0)
	if w.opts.Compression == CompressionGzip {
		flags |= flagGzip
	}
	hdr := append([]byte(shardMagic), flags)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	sw := &shardWriter{
		cell: cell,
		seq:  seq,
		name: name,
		file: f,
		disk: &countWriter{w: f},
		b:    newShardBuilder(),
	}
	var payload io.Writer = sw.disk
	if flags&flagGzip != 0 {
		sw.gz = gzip.NewWriter(sw.disk)
		payload = sw.gz
	}
	sw.bw = trace.NewBinaryWriter(payload)
	return sw, nil
}

func (w *Writer) evictOldest() error {
	var victim *shardWriter
	for _, sw := range w.open {
		if victim == nil || sw.ticket < victim.ticket ||
			(sw.ticket == victim.ticket && sw.name < victim.name) {
			victim = sw
		}
	}
	if victim == nil {
		return nil
	}
	return w.finalize(victim)
}

// note files the frame just written, which started at raw offset off,
// into its shard's directory and the writer totals.
func (w *Writer) note(sw *shardWriter, kind byte, k trace.PairKey, at time.Duration, off int64) {
	sw.b.add(trace.FrameHeader{Kind: kind, Key: k, At: at, Len: int(sw.bw.Written() - off)})
	if kind == trace.FramePing {
		w.pings++
	} else {
		w.traceroutes++
	}
	w.clock++
	sw.ticket = w.clock
	w.records++
	w.recordsC.Inc()
}

// WriteTraceroute routes one traceroute into its shard.
func (w *Writer) WriteTraceroute(tr *trace.Traceroute) error {
	if w.closed {
		return fmt.Errorf("store: write after Close")
	}
	sw, err := w.shardFor(tr.Key(), tr.At)
	if err != nil {
		return err
	}
	off := sw.bw.Written()
	if err := sw.bw.WriteTraceroute(tr); err != nil {
		return err
	}
	w.note(sw, trace.FrameTraceroute, tr.Key(), tr.At, off)
	return nil
}

// WritePing routes one ping into its shard.
func (w *Writer) WritePing(p *trace.Ping) error {
	if w.closed {
		return fmt.Errorf("store: write after Close")
	}
	sw, err := w.shardFor(p.Key(), p.At)
	if err != nil {
		return err
	}
	off := sw.bw.Written()
	if err := sw.bw.WritePing(p); err != nil {
		return err
	}
	w.note(sw, trace.FramePing, p.Key(), p.At, off)
	return nil
}

// finalize flushes a shard's payload, writes its directory, footer and
// trailer, and records its manifest entry.
func (w *Writer) finalize(sw *shardWriter) error {
	delete(w.open, sw.cell)
	if err := sw.bw.Flush(); err != nil {
		sw.file.Close()
		return err
	}
	if sw.gz != nil {
		if err := sw.gz.Close(); err != nil {
			sw.file.Close()
			return err
		}
	}
	ix, dir := sw.b.finish(sw.disk.n)
	tail, err := writeTail(sw.file, ix, dir)
	if err != nil {
		sw.file.Close()
		return err
	}
	if err := sw.file.Close(); err != nil {
		return err
	}
	w.done = append(w.done, ShardEntry{
		File:      sw.name,
		Day:       sw.cell.day,
		PairShard: sw.cell.ps,
		Seq:       sw.seq,
		Records:   ix.Records,
		MinAtNS:   int64(ix.MinAt),
		MaxAtNS:   int64(ix.MaxAt),
		Bytes:     int64(headerLen) + ix.PayloadBytes + tail,
	})
	w.shardsC.Inc()
	w.bytesC.Add(ix.PayloadBytes + ix.DirBytes)
	return nil
}

// finalizeOpen finalizes every open shard in name order.
func (w *Writer) finalizeOpen() error {
	remaining := make([]*shardWriter, 0, len(w.open))
	for _, sw := range w.open {
		remaining = append(remaining, sw)
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].name < remaining[j].name })
	for _, sw := range remaining {
		if err := w.finalize(sw); err != nil {
			return err
		}
	}
	return nil
}

// manifest builds the manifest for the shards finalized so far.
func (w *Writer) manifest() *Manifest {
	m := &Manifest{
		Version:     ManifestVersion,
		Tool:        w.opts.Tool,
		Seed:        w.opts.Seed,
		TopoDigest:  w.opts.TopoDigest,
		DayLengthNS: int64(w.opts.DayLength),
		PairShards:  w.opts.PairShards,
		Compression: w.opts.Compression,
		Records:     w.records,
		Traceroutes: w.traceroutes,
		Pings:       w.pings,
		Shards:      append([]ShardEntry(nil), w.done...),
	}
	sortShards(m.Shards)
	return m
}

// Records returns how many records have been routed into the store.
func (w *Writer) Records() int64 { return w.records }

// Checkpoint makes everything written so far durable — every open segment
// is finalized (footer and trailer written, file closed) and the manifest
// is atomically replaced — and returns the committed record count as the
// resume position. The writer stays usable: cells written again after a
// checkpoint continue in follow-up segment files (Compact merges them).
// Checkpoint satisfies campaign.CheckpointableWriter.
func (w *Writer) Checkpoint() (int64, error) {
	if w.closed {
		return 0, fmt.Errorf("store: checkpoint after Close")
	}
	if err := w.finalizeOpen(); err != nil {
		return 0, err
	}
	if err := WriteManifest(w.dir, w.manifest()); err != nil {
		return 0, err
	}
	return w.records, nil
}

// Close finalizes every open shard and writes the manifest. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.finalizeOpen(); err != nil {
		return err
	}
	return WriteManifest(w.dir, w.manifest())
}
