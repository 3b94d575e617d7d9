package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/trace"
)

// Shard file framing (format v2):
//
//	8 bytes    magic "S2SSHRD1"
//	1 byte     flags (bit0: gzip payload)
//	payload    record frames (trace binary framing, possibly gzip)
//	directory  encoded frame directory (always uncompressed; see dir.go)
//	footer     encoded shardIndex (always uncompressed)
//	4 bytes    footer length, little endian
//	4 bytes    trailer magic "S2SX"
const (
	shardMagic   = "S2SSHRD1"
	trailerMagic = "S2SX"
	headerLen    = len(shardMagic) + 1
	trailerLen   = 8

	flagGzip byte = 1
)

// indexVersion is the footer encoding version. Version 2 added the frame
// directory; version 1 shards have none and are rejected.
const indexVersion = 2

// exactPairCap is the largest distinct-pair population stored as an exact
// sorted list; above it the footer switches to a bloom filter.
const exactPairCap = 512

// bloomHashes is the number of bloom probes per key.
const bloomHashes = 4

// shardIndex is the per-shard footer: everything a reader needs to decide
// whether to open the payload.
type shardIndex struct {
	// Records counts all records; Traceroutes + Pings == Records.
	Records     int64
	Traceroutes int64
	Pings       int64
	// MinAt/MaxAt span the record timestamps.
	MinAt, MaxAt time.Duration
	// PayloadBytes is the on-disk payload size (compressed size when the
	// shard is compressed); RawBytes is the uncompressed framing size.
	PayloadBytes int64
	RawBytes     int64
	// DirOffset and DirBytes locate the frame directory in the file. Open
	// reads only the footer; pair reads fetch the directory on demand.
	DirOffset int64
	DirBytes  int64
	// Exact is the sorted distinct pair list when small enough, else nil
	// and Bloom holds a filter over the pair keys.
	Exact []trace.PairKey
	Bloom []byte

	// gzip comes from the shard header's flags, not from the footer.
	gzip bool
}

// canContain reports whether the shard may hold records for key. False is
// definitive; true may be a bloom false positive.
func (ix *shardIndex) canContain(k trace.PairKey) bool {
	if ix.Exact != nil {
		i := sort.Search(len(ix.Exact), func(i int) bool { return !pairLess(ix.Exact[i], k) })
		return i < len(ix.Exact) && ix.Exact[i] == k
	}
	if len(ix.Bloom) == 0 {
		return false
	}
	h1, h2 := pairHashes(k)
	bits := uint64(len(ix.Bloom)) * 8
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % bits
		if ix.Bloom[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

func pairLess(a, b trace.PairKey) bool {
	if a.SrcID != b.SrcID {
		return a.SrcID < b.SrcID
	}
	if a.DstID != b.DstID {
		return a.DstID < b.DstID
	}
	return !a.V6 && b.V6
}

// pairHashes returns two independent 64-bit hashes of the key for
// double-hashed bloom probes.
func pairHashes(k trace.PairKey) (uint64, uint64) {
	h := fnv.New64a()
	var buf [17]byte
	putUint64(buf[0:8], uint64(int64(k.SrcID)))
	putUint64(buf[8:16], uint64(int64(k.DstID)))
	if k.V6 {
		buf[16] = 1
	}
	h.Write(buf[:])
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// newBloom builds a filter sized for n keys at ~1% false positives,
// rounded up to whole bytes and capped at 64 KiB.
func newBloom(keys []trace.PairKey) []byte {
	bits := len(keys) * 10
	if bits < 64 {
		bits = 64
	}
	if bits > 1<<19 {
		bits = 1 << 19
	}
	b := make([]byte, (bits+7)/8)
	nbits := uint64(len(b)) * 8
	for _, k := range keys {
		h1, h2 := pairHashes(k)
		for i := uint64(0); i < bloomHashes; i++ {
			bit := (h1 + i*h2) % nbits
			b[bit/8] |= 1 << (bit % 8)
		}
	}
	return b
}

// Pair-set tags in the encoded footer.
const (
	pairSetExact byte = 0
	pairSetBloom byte = 1
)

// encodeIndex serializes the footer.
func encodeIndex(ix *shardIndex) []byte {
	var buf []byte
	buf = append(buf, indexVersion)
	buf = appendUvarint(buf, uint64(ix.Records))
	buf = appendUvarint(buf, uint64(ix.Traceroutes))
	buf = appendUvarint(buf, uint64(ix.Pings))
	buf = binary.AppendVarint(buf, int64(ix.MinAt))
	buf = binary.AppendVarint(buf, int64(ix.MaxAt))
	buf = appendUvarint(buf, uint64(ix.PayloadBytes))
	buf = appendUvarint(buf, uint64(ix.RawBytes))
	buf = appendUvarint(buf, uint64(ix.DirOffset))
	buf = appendUvarint(buf, uint64(ix.DirBytes))
	if ix.Exact != nil {
		buf = append(buf, pairSetExact)
		buf = appendUvarint(buf, uint64(len(ix.Exact)))
		for _, k := range ix.Exact {
			buf = binary.AppendVarint(buf, int64(k.SrcID))
			buf = binary.AppendVarint(buf, int64(k.DstID))
			if k.V6 {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	} else {
		buf = append(buf, pairSetBloom)
		buf = appendUvarint(buf, uint64(len(ix.Bloom)))
		buf = append(buf, ix.Bloom...)
	}
	return buf
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

type indexCursor struct {
	data []byte
	off  int
}

func (c *indexCursor) byte() (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("store: truncated index at offset %d", c.off)
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

func (c *indexCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad uvarint in index at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *indexCursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad varint in index at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// decodeIndex parses an encoded footer. It validates counts and sizes so a
// corrupt footer fails cleanly instead of driving huge allocations.
func decodeIndex(data []byte) (*shardIndex, error) {
	c := indexCursor{data: data}
	ver, err := c.byte()
	if err != nil {
		return nil, err
	}
	if ver != indexVersion {
		return nil, fmt.Errorf("store: unsupported shard index version %d (this build reads version %d)", ver, indexVersion)
	}
	ix := new(shardIndex)
	for _, dst := range []*int64{&ix.Records, &ix.Traceroutes, &ix.Pings} {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<48 {
			return nil, fmt.Errorf("store: implausible count %d in index", v)
		}
		*dst = int64(v)
	}
	if ix.Traceroutes+ix.Pings != ix.Records {
		return nil, fmt.Errorf("store: index counts disagree (%d+%d != %d)",
			ix.Traceroutes, ix.Pings, ix.Records)
	}
	minAt, err := c.varint()
	if err != nil {
		return nil, err
	}
	maxAt, err := c.varint()
	if err != nil {
		return nil, err
	}
	if maxAt < minAt {
		return nil, fmt.Errorf("store: index span inverted (%d > %d)", minAt, maxAt)
	}
	ix.MinAt, ix.MaxAt = time.Duration(minAt), time.Duration(maxAt)
	for _, dst := range []*int64{&ix.PayloadBytes, &ix.RawBytes, &ix.DirOffset, &ix.DirBytes} {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<56 {
			return nil, fmt.Errorf("store: implausible byte count %d in index", v)
		}
		*dst = int64(v)
	}
	tag, err := c.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case pairSetExact:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > exactPairCap {
			return nil, fmt.Errorf("store: exact pair list of %d exceeds cap %d", n, exactPairCap)
		}
		ix.Exact = make([]trace.PairKey, 0, n)
		for i := uint64(0); i < n; i++ {
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
				return nil, fmt.Errorf("store: bad v6 flag %d in index", v6)
			}
			ix.Exact = append(ix.Exact, trace.PairKey{SrcID: int(src), DstID: int(dst), V6: v6 == 1})
		}
		if !sort.SliceIsSorted(ix.Exact, func(i, j int) bool { return pairLess(ix.Exact[i], ix.Exact[j]) }) {
			return nil, fmt.Errorf("store: exact pair list not sorted")
		}
	case pairSetBloom:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("store: implausible bloom size %d", n)
		}
		if c.off+int(n) > len(c.data) {
			return nil, fmt.Errorf("store: truncated bloom filter")
		}
		ix.Bloom = append([]byte(nil), c.data[c.off:c.off+int(n)]...)
		c.off += int(n)
	default:
		return nil, fmt.Errorf("store: unknown pair-set tag %d", tag)
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("store: %d trailing bytes after index", len(c.data)-c.off)
	}
	return ix, nil
}

// pairSetOf turns a shard's sorted distinct keys into the footer
// representation: the exact list when small, a bloom filter otherwise.
func pairSetOf(keys []trace.PairKey) (exact []trace.PairKey, bloom []byte) {
	if len(keys) <= exactPairCap {
		return keys, nil
	}
	return nil, newBloom(keys)
}
