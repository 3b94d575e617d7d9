package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// readShardBytes returns a shard's on-disk payload and its decompressed
// record framing (the same slice when the shard is uncompressed).
func readShardBytes(path string, ix *shardIndex) (disk, raw []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	disk = make([]byte, ix.PayloadBytes)
	if _, err := f.ReadAt(disk, int64(headerLen)); err != nil {
		return nil, nil, err
	}
	if !ix.gzip {
		return disk, disk, nil
	}
	raw, err = inflate(disk, ix.RawBytes)
	return disk, raw, err
}

// inflate decompresses a gzip payload (possibly several concatenated
// members) of rawBytes uncompressed bytes.
func inflate(disk []byte, rawBytes int64) ([]byte, error) {
	gr, err := gzip.NewReader(bytes.NewReader(disk))
	if err != nil {
		return nil, err
	}
	// rawBytes comes from the footer: trust it as a size hint only up to
	// deflate's best ratio, and check it after inflating.
	hint := rawBytes
	if max := int64(len(disk)) * 1032; hint > max {
		hint = max
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint))
	if _, err := io.Copy(buf, gr); err != nil {
		return nil, err
	}
	if err := gr.Close(); err != nil {
		return nil, err
	}
	if int64(buf.Len()) != rawBytes {
		return nil, fmt.Errorf("payload inflates to %d bytes, footer says %d", buf.Len(), rawBytes)
	}
	return buf.Bytes(), nil
}

// Compact merges the segment files of every (day, pair-shard) cell that
// was split by writer eviction into a single shard. Payload bytes are
// copied verbatim — frames are walked with trace.ParseFrameHeader to
// rebuild the footer and the frame directory, but no record is ever
// re-decoded, and compressed shards are concatenated as gzip members
// rather than being recompressed. Compact operates on a closed store;
// reopen it afterwards.
func Compact(dir string) error {
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	// Group the (already sorted) shard table by cell.
	var out []ShardEntry
	changed := false
	for i := 0; i < len(man.Shards); {
		j := i
		for j < len(man.Shards) &&
			man.Shards[j].Day == man.Shards[i].Day &&
			man.Shards[j].PairShard == man.Shards[i].PairShard {
			j++
		}
		group := man.Shards[i:j]
		i = j
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		merged, err := mergeSegments(dir, man, group)
		if err != nil {
			return err
		}
		out = append(out, merged)
		changed = true
	}
	if !changed {
		return nil
	}
	man.Shards = out
	sortShards(man.Shards)
	return WriteManifest(dir, man)
}

// mergeSegments concatenates one cell's segments into a fresh seq-0 shard.
func mergeSegments(dir string, man *Manifest, group []ShardEntry) (ShardEntry, error) {
	b := newShardBuilder()
	tmpPath := filepath.Join(dir, shardName(group[0].Day, group[0].PairShard, 0)+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return ShardEntry{}, err
	}
	defer os.Remove(tmpPath)
	flags := byte(0)
	if man.Compression == CompressionGzip {
		flags |= flagGzip
	}
	if _, err := tmp.Write(append([]byte(shardMagic), flags)); err != nil {
		tmp.Close()
		return ShardEntry{}, err
	}
	// Segments' raw streams follow each other in the merged one (gzip
	// members inflate back to back), so the builder's running offset is
	// right for compressed and plain shards alike.
	var payload int64
	for _, e := range group {
		ix, err := readFooter(filepath.Join(dir, e.File))
		if err != nil {
			tmp.Close()
			return ShardEntry{}, fmt.Errorf("store: compact %s: %w", e.File, err)
		}
		disk, raw, err := readShardBytes(filepath.Join(dir, e.File), ix)
		if err != nil {
			tmp.Close()
			return ShardEntry{}, fmt.Errorf("store: compact %s: %w", e.File, err)
		}
		// Frame walk: rebuild footer and directory without decoding records.
		for off := 0; off < len(raw); {
			h, err := trace.ParseFrameHeader(raw[off:])
			if err != nil {
				tmp.Close()
				return ShardEntry{}, fmt.Errorf("store: compact %s: frame at %d: %w", e.File, off, err)
			}
			b.add(h)
			off += h.Len
		}
		if _, err := tmp.Write(disk); err != nil {
			tmp.Close()
			return ShardEntry{}, err
		}
		payload += int64(len(disk))
	}
	merged, dirBytes := b.finish(payload)
	tail, err := writeTail(tmp, merged, dirBytes)
	if err != nil {
		tmp.Close()
		return ShardEntry{}, err
	}
	if err := tmp.Close(); err != nil {
		return ShardEntry{}, err
	}
	for _, e := range group {
		if err := os.Remove(filepath.Join(dir, e.File)); err != nil {
			return ShardEntry{}, err
		}
	}
	final := filepath.Join(dir, shardName(group[0].Day, group[0].PairShard, 0))
	if err := os.Rename(tmpPath, final); err != nil {
		return ShardEntry{}, err
	}
	return ShardEntry{
		File:      filepath.Base(final),
		Day:       group[0].Day,
		PairShard: group[0].PairShard,
		Seq:       0,
		Records:   merged.Records,
		MinAtNS:   int64(merged.MinAt),
		MaxAtNS:   int64(merged.MaxAt),
		Bytes:     int64(headerLen) + merged.PayloadBytes + tail,
	}, nil
}
