// Package store is the sharded, indexed on-disk dataset store. A store is
// a directory of shard files plus a manifest: records are routed at write
// time by (virtual day, pair shard), and manifest.json pins the run that
// produced the store (seed, topology digest) next to the shard table.
//
// A shard file (format v2) is
//
//	header | payload | directory | footer | trailer
//
// The payload holds the records in the internal/trace binary framing,
// optionally gzip-compressed. The frame directory lists, for every
// timeline key in the shard, the raw-stream offset and length of each of
// its frames. The footer index holds record counts, the time span, the
// pair set (exact list or bloom filter) and where the directory sits.
// Shards are written round-major, so every run of consecutive frames
// holds every pair of the column; the directory is what lets a pair read
// skip the rest. Version-1 shards (no directory) are rejected.
//
// The layout exists so dataset size is independent of RAM and so readers
// parallelize at the I/O level:
//
//   - Open reads footers only, never directories or payloads.
//   - Scan decodes whole shards on a worker pool and delivers records in
//     a fixed shard order (day-major, pair-shard-minor), which preserves
//     the per-pair record order of the writing campaign — both protocols
//     of a directed pair hash to the same pair shard, so round-adjacent
//     v4/v6 measurements stay adjacent. At most workers+2 decoded shards
//     wait for the consumer.
//   - Pair, Lookup and Pairs push pair predicates down: only shards whose
//     column, footer pair set and time span admit a requested key are
//     opened, and within a shard only the directory and the wanted frames
//     are read, in offset order, so write order holds. A gzip shard is
//     still inflated whole and then sliced through the same directory:
//     compression trades lookup cost for space.
//
// Instrument and Trace thread the obs metrics registry and the flight
// recorder through reads and writes; like everywhere else in the pipeline,
// observation never alters the record stream.
package store

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/trace"
)

// Metric names exported by Writer.Instrument and Store.Instrument.
const (
	MetricShardsWritten  = "s2s_store_shards_written_total"
	MetricRecordsWritten = "s2s_store_records_written_total"
	MetricBytesWritten   = "s2s_store_bytes_written_total"
	MetricShardsScanned  = "s2s_store_shards_scanned_total"
	MetricShardsPruned   = "s2s_store_shards_pruned_total"
	MetricBytesRead      = "s2s_store_bytes_read_total"
	MetricRecordsRead    = "s2s_store_records_read_total"
	MetricFramesFiltered = "s2s_store_frames_filtered_total"
)

// ManifestName is the manifest file inside a store directory; its presence
// is what IsStore detects.
const ManifestName = "manifest.json"

// CompressionGzip enables per-shard gzip compression of the record payload
// (directories, footers and the manifest stay uncompressed so pruning
// never inflates).
const CompressionGzip = "gzip"

// Options parameterizes a new store.
type Options struct {
	// DayLength is the virtual-day shard granularity (default 24h).
	DayLength time.Duration
	// PairShards is the number of pair-hash columns per day (default 8).
	PairShards int
	// Compression is "" (none) or CompressionGzip.
	Compression string
	// MaxOpenShards bounds the writer's open shard files (default 128). A
	// shard evicted and written to again continues in a follow-up segment
	// file; Compact merges segments without re-decoding records.
	MaxOpenShards int

	// Tool, Seed, and TopoDigest are recorded in the manifest.
	Tool       string
	Seed       int64
	TopoDigest string
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.DayLength == 0 {
		out.DayLength = 24 * time.Hour
	}
	if out.DayLength < 0 {
		return out, fmt.Errorf("store: negative day length %v", out.DayLength)
	}
	if out.PairShards == 0 {
		out.PairShards = 8
	}
	if out.PairShards < 0 {
		return out, fmt.Errorf("store: negative pair shards %d", out.PairShards)
	}
	if out.MaxOpenShards <= 0 {
		out.MaxOpenShards = 128
	}
	switch out.Compression {
	case "", CompressionGzip:
	default:
		return out, fmt.Errorf("store: unknown compression %q", out.Compression)
	}
	return out, nil
}

// Consumer receives records from a store read. campaign.Collector,
// campaign.Funcs, and every other campaign consumer satisfy it.
type Consumer interface {
	OnTraceroute(*trace.Traceroute)
	OnPing(*trace.Ping)
}

// PairShardOf maps a timeline key to its pair-shard column. The protocol
// bit is deliberately ignored: the v4 and v6 timelines of a directed pair
// live in the same shard, so streaming consumers that pair round-adjacent
// v4/v6 measurements (dualstack.DiffCollector) see them adjacent under
// Scan exactly as they did on the live campaign stream.
func PairShardOf(k trace.PairKey, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [16]byte
	putUint64(buf[0:8], uint64(int64(k.SrcID)))
	putUint64(buf[8:16], uint64(int64(k.DstID)))
	h.Write(buf[:])
	return int(h.Sum64() % uint64(shards))
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// shardName is the canonical shard file name: day, pair-shard column, and
// the segment sequence number within that cell.
func shardName(day, pairShard, seq int) string {
	return fmt.Sprintf("d%05d-p%02d-s%02d.shard", day, pairShard, seq)
}
