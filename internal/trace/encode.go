package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// JSONLWriter streams records as JSON lines.
type JSONLWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter returns a writer emitting one JSON object per line.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{w: bw, enc: json.NewEncoder(bw)}
}

// WriteTraceroute emits one traceroute record.
func (jw *JSONLWriter) WriteTraceroute(tr *Traceroute) error { return jw.enc.Encode(tr) }

// WritePing emits one ping record.
func (jw *JSONLWriter) WritePing(p *Ping) error { return jw.enc.Encode(p) }

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error { return jw.w.Flush() }

// Binary framing: a magic byte per record kind, then varint fields and
// length-prefixed hop lists. Addresses are stored as a 1-byte length (4 or
// 16) plus raw bytes; an unresponsive hop stores length 0.
const (
	magicTraceroute byte = 0xA1
	magicPing       byte = 0xA2
)

// BinaryWriter streams records in the compact binary framing.
type BinaryWriter struct {
	w   *bufio.Writer
	out *byteCounter
}

// byteCounter counts the bytes the buffer hands to the underlying writer.
type byteCounter struct {
	w io.Writer
	n int64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewBinaryWriter returns a binary record writer.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	out := &byteCounter{w: w}
	return &BinaryWriter{w: bufio.NewWriter(out), out: out}
}

// Flush flushes buffered output.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// Written returns how many framing bytes the writer has accepted, flushed
// or still buffered: the offset at which the next record's frame starts.
func (bw *BinaryWriter) Written() int64 { return bw.out.n + int64(bw.w.Buffered()) }

func writeAddr(w *bufio.Writer, a netip.Addr) error {
	if !a.IsValid() {
		return w.WriteByte(0)
	}
	b := a.AsSlice()
	if err := w.WriteByte(byte(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readAddr(r *bufio.Reader) (netip.Addr, error) {
	n, err := r.ReadByte()
	if err != nil {
		return netip.Addr{}, err
	}
	switch n {
	case 0:
		return netip.Addr{}, nil
	case 4, 16:
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return netip.Addr{}, err
		}
		a, ok := netip.AddrFromSlice(buf)
		if !ok {
			return netip.Addr{}, fmt.Errorf("trace: bad address bytes")
		}
		return a, nil
	default:
		return netip.Addr{}, fmt.Errorf("trace: bad address length %d", n)
	}
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w *bufio.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// WriteTraceroute emits one traceroute record.
func (bw *BinaryWriter) WriteTraceroute(tr *Traceroute) error {
	w := bw.w
	if err := w.WriteByte(magicTraceroute); err != nil {
		return err
	}
	flags := byte(0)
	if tr.V6 {
		flags |= 1
	}
	if tr.Paris {
		flags |= 2
	}
	if tr.Complete {
		flags |= 4
	}
	if err := w.WriteByte(flags); err != nil {
		return err
	}
	for _, v := range []int64{int64(tr.SrcID), int64(tr.DstID), int64(tr.At), int64(tr.RTT)} {
		if err := writeVarint(w, v); err != nil {
			return err
		}
	}
	if err := writeAddr(w, tr.Src); err != nil {
		return err
	}
	if err := writeAddr(w, tr.Dst); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(tr.Hops))); err != nil {
		return err
	}
	for _, h := range tr.Hops {
		if err := writeAddr(w, h.Addr); err != nil {
			return err
		}
		if err := writeVarint(w, int64(h.RTT)); err != nil {
			return err
		}
	}
	return nil
}

// WritePing emits one ping record.
func (bw *BinaryWriter) WritePing(p *Ping) error {
	w := bw.w
	if err := w.WriteByte(magicPing); err != nil {
		return err
	}
	flags := byte(0)
	if p.V6 {
		flags |= 1
	}
	if p.Lost {
		flags |= 2
	}
	if err := w.WriteByte(flags); err != nil {
		return err
	}
	for _, v := range []int64{int64(p.SrcID), int64(p.DstID), int64(p.At), int64(p.RTT)} {
		if err := writeVarint(w, v); err != nil {
			return err
		}
	}
	if err := writeAddr(w, p.Src); err != nil {
		return err
	}
	return writeAddr(w, p.Dst)
}

// BinaryReader reads records written by BinaryWriter.
type BinaryReader struct {
	r *bufio.Reader
}

// NewBinaryReader returns a binary record reader.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Next reads the next record, returning either *Traceroute or *Ping.
// It returns io.EOF at end of stream.
func (br *BinaryReader) Next() (any, error) {
	magic, err := br.r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch magic {
	case magicTraceroute:
		return br.readTraceroute()
	case magicPing:
		return br.readPing()
	default:
		return nil, fmt.Errorf("trace: bad record magic 0x%02x", magic)
	}
}

func (br *BinaryReader) readTraceroute() (*Traceroute, error) {
	r := br.r
	flags, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	tr := &Traceroute{
		V6:       flags&1 != 0,
		Paris:    flags&2 != 0,
		Complete: flags&4 != 0,
	}
	vals := make([]int64, 4)
	for i := range vals {
		if vals[i], err = binary.ReadVarint(r); err != nil {
			return nil, err
		}
	}
	tr.SrcID, tr.DstID = int(vals[0]), int(vals[1])
	tr.At, tr.RTT = time.Duration(vals[2]), time.Duration(vals[3])
	if tr.Src, err = readAddr(r); err != nil {
		return nil, err
	}
	if tr.Dst, err = readAddr(r); err != nil {
		return nil, err
	}
	nHops, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nHops > 1<<16 {
		return nil, fmt.Errorf("trace: implausible hop count %d", nHops)
	}
	tr.Hops = make([]Hop, nHops)
	for i := range tr.Hops {
		if tr.Hops[i].Addr, err = readAddr(r); err != nil {
			return nil, err
		}
		rtt, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		tr.Hops[i].RTT = time.Duration(rtt)
	}
	return tr, nil
}

func (br *BinaryReader) readPing() (*Ping, error) {
	r := br.r
	flags, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	p := &Ping{
		V6:   flags&1 != 0,
		Lost: flags&2 != 0,
	}
	vals := make([]int64, 4)
	for i := range vals {
		if vals[i], err = binary.ReadVarint(r); err != nil {
			return nil, err
		}
	}
	p.SrcID, p.DstID = int(vals[0]), int(vals[1])
	p.At, p.RTT = time.Duration(vals[2]), time.Duration(vals[3])
	if p.Src, err = readAddr(r); err != nil {
		return nil, err
	}
	if p.Dst, err = readAddr(r); err != nil {
		return nil, err
	}
	return p, nil
}
