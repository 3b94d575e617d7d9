package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Frame directory. A shard is written round-major — every round appends
// one frame per timeline key — so any run of consecutive frames holds
// every key of the shard's column, and only a per-frame index lets a pair
// read skip the others. The directory sits between the payload and the
// footer:
//
//	uvarint  key count
//	per key, in pairLess order:
//	  varint src, varint dst, byte v6
//	  uvarint frame count
//	  per frame, ascending: uvarint gap, uvarint length
//
// Offsets and lengths address the uncompressed record framing (the raw
// stream); a frame's gap is its offset minus the end of the same key's
// previous frame (0 for the first). The frame count over all keys equals
// the footer's Records and the lengths tile RawBytes exactly.

// frameRange is one frame's extent in the raw stream.
type frameRange struct{ Off, Len int64 }

// dirEntry is one timeline key's frames, in stream order.
type dirEntry struct {
	Key    trace.PairKey
	Frames []frameRange
}

// shardBuilder accumulates a shard's footer and frame directory from its
// frames in stream order. The writer, Compact and repairShard all build
// shards through it. While a shard is open it keeps 8 bytes per frame —
// the writer may hold up to MaxOpenShards of them — and lays out the
// per-key lists only when the shard is sealed.
type shardBuilder struct {
	ix     shardIndex
	ids    map[trace.PairKey]uint32
	keys   []trace.PairKey // by id
	frames []frameRef      // in stream order; they tile the raw stream
}

// frameRef is one frame as the builder keeps it: its key's id and length.
type frameRef struct{ id, len uint32 }

func newShardBuilder() *shardBuilder {
	return &shardBuilder{ids: make(map[trace.PairKey]uint32)}
}

// add records the next frame of the raw stream, which starts where the
// previous one ended.
func (b *shardBuilder) add(h trace.FrameHeader) {
	ix := &b.ix
	if ix.Records == 0 || h.At < ix.MinAt {
		ix.MinAt = h.At
	}
	if ix.Records == 0 || h.At > ix.MaxAt {
		ix.MaxAt = h.At
	}
	ix.Records++
	if h.Kind == trace.FramePing {
		ix.Pings++
	} else {
		ix.Traceroutes++
	}
	ix.RawBytes += int64(h.Len)
	id, ok := b.ids[h.Key]
	if !ok {
		id = uint32(len(b.keys))
		b.ids[h.Key] = id
		b.keys = append(b.keys, h.Key)
	}
	b.frames = append(b.frames, frameRef{id: id, len: uint32(h.Len)})
}

// entries returns the directory in key order.
func (b *shardBuilder) entries() []dirEntry {
	order := make([]uint32, len(b.keys))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return pairLess(b.keys[order[i]], b.keys[order[j]]) })
	// Counting sort of the frames by key: next[id] is where the key's next
	// frame goes in all, which holds each key's frames contiguously.
	next := make([]int, len(b.keys))
	for _, f := range b.frames {
		next[f.id]++
	}
	ents := make([]dirEntry, len(order))
	pos := 0
	for i, id := range order {
		n := next[id]
		next[id] = pos
		ents[i].Key = b.keys[id]
		pos += n
	}
	all := make([]frameRange, len(b.frames))
	off := int64(0)
	for _, f := range b.frames {
		all[next[f.id]] = frameRange{Off: off, Len: int64(f.len)}
		next[f.id]++
		off += int64(f.len)
	}
	start := 0
	for i, id := range order {
		ents[i].Frames = all[start:next[id]:next[id]]
		start = next[id]
	}
	return ents
}

// finish seals the shard for a payload of payloadBytes on disk and returns
// its footer index and encoded directory.
func (b *shardBuilder) finish(payloadBytes int64) (*shardIndex, []byte) {
	ents := b.entries()
	keys := make([]trace.PairKey, len(ents))
	for i, e := range ents {
		keys[i] = e.Key
	}
	ix := b.ix
	ix.Exact, ix.Bloom = pairSetOf(keys)
	dir := encodeDir(ents)
	ix.PayloadBytes = payloadBytes
	ix.DirOffset = int64(headerLen) + payloadBytes
	ix.DirBytes = int64(len(dir))
	return &ix, dir
}

// writeTail writes a shard's directory, footer and trailer after its
// payload and returns the bytes written.
func writeTail(w io.Writer, ix *shardIndex, dir []byte) (int64, error) {
	footer := encodeIndex(ix)
	tail := make([]byte, 0, len(dir)+len(footer)+trailerLen)
	tail = append(tail, dir...)
	tail = append(tail, footer...)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(footer)))
	tail = append(tail, trailerMagic...)
	n, err := w.Write(tail)
	return int64(n), err
}

// encodeDir serializes a directory whose entries are in key order.
func encodeDir(ents []dirEntry) []byte {
	var buf []byte
	buf = appendUvarint(buf, uint64(len(ents)))
	for _, e := range ents {
		buf = binary.AppendVarint(buf, int64(e.Key.SrcID))
		buf = binary.AppendVarint(buf, int64(e.Key.DstID))
		if e.Key.V6 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendUvarint(buf, uint64(len(e.Frames)))
		end := int64(0)
		for _, f := range e.Frames {
			buf = appendUvarint(buf, uint64(f.Off-end))
			buf = appendUvarint(buf, uint64(f.Len))
			end = f.Off + f.Len
		}
	}
	return buf
}

// decodeDir validates an encoded directory against its shard's footer and
// returns the entries of the keys in want (sorted by pairLess), or of
// every key when want is nil. The whole directory is checked — keys
// strictly ascending, each key's frames ascending and non-overlapping
// inside RawBytes, frame count equal to Records and lengths summing to
// RawBytes — before anything is returned, so no caller reads a range a
// corrupt directory made up. Counts are checked against what remains of
// the input and the footer before they are used, so no allocation is
// sized by an unchecked field.
func decodeDir(data []byte, ix *shardIndex, want []trace.PairKey) ([]dirEntry, error) {
	c := indexCursor{data: data}
	nkeys, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Every key takes at least 4 bytes (src, dst, v6, count).
	if nkeys > uint64(len(data)/4) {
		return nil, fmt.Errorf("store: directory claims %d keys in %d bytes", nkeys, len(data))
	}
	var out []dirEntry
	var frames, total int64
	var prev trace.PairKey
	wi := 0
	for i := uint64(0); i < nkeys; i++ {
		src, err := c.varint()
		if err != nil {
			return nil, err
		}
		dst, err := c.varint()
		if err != nil {
			return nil, err
		}
		v6, err := c.byte()
		if err != nil {
			return nil, err
		}
		if v6 > 1 {
			return nil, fmt.Errorf("store: bad v6 flag %d in directory", v6)
		}
		k := trace.PairKey{SrcID: int(src), DstID: int(dst), V6: v6 == 1}
		if i > 0 && !pairLess(prev, k) {
			return nil, fmt.Errorf("store: directory keys not strictly sorted at %v", k)
		}
		prev = k
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		// Every frame takes at least 2 bytes (gap, length).
		if n == 0 || n > uint64(ix.Records-frames) || n > uint64(len(data)-c.off)/2 {
			return nil, fmt.Errorf("store: directory key %v claims %d frames", k, n)
		}
		for wi < len(want) && pairLess(want[wi], k) {
			wi++
		}
		keep := want == nil || (wi < len(want) && want[wi] == k)
		var fr []frameRange
		if keep {
			fr = make([]frameRange, 0, n)
		}
		end := int64(0)
		for j := uint64(0); j < n; j++ {
			gap, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			ln, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if ln == 0 || gap > uint64(ix.RawBytes-end) || ln > uint64(ix.RawBytes-end)-gap {
				return nil, fmt.Errorf("store: directory frame %d of %v outside the %d-byte stream", j, k, ix.RawBytes)
			}
			off := end + int64(gap)
			end = off + int64(ln)
			if total += int64(ln); total > ix.RawBytes {
				return nil, fmt.Errorf("store: directory frames exceed the %d-byte stream", ix.RawBytes)
			}
			if keep {
				fr = append(fr, frameRange{Off: off, Len: int64(ln)})
			}
		}
		frames += int64(n)
		if keep {
			out = append(out, dirEntry{Key: k, Frames: fr})
		}
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("store: %d trailing bytes after directory", len(data)-c.off)
	}
	if frames != ix.Records || total != ix.RawBytes {
		return nil, fmt.Errorf("store: directory holds %d frames over %d bytes, footer says %d over %d",
			frames, total, ix.Records, ix.RawBytes)
	}
	return out, nil
}
