package trace

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestParseFrameHeader walks a multi-record stream frame by frame and
// checks every header against the full decoder.
func TestParseFrameHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	tr := sampleTraceroute()
	p := samplePing()
	tr6 := sampleTraceroute()
	tr6.V6 = true
	tr6.At = 99 * time.Hour
	tr6.Hops = nil
	for i := 0; i < 3; i++ {
		if err := w.WriteTraceroute(tr); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePing(p); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTraceroute(tr6); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	data := buf.Bytes()
	r := NewBinaryReader(bytes.NewReader(data))
	frames := 0
	for {
		h, err := ParseFrameHeader(data)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("decode %d: %v", frames, err)
		}
		switch v := rec.(type) {
		case *Traceroute:
			if h.Kind != FrameTraceroute || h.Key != v.Key() || h.At != v.At {
				t.Fatalf("frame %d: header %+v vs traceroute %+v", frames, h, v)
			}
		case *Ping:
			if h.Kind != FramePing || h.Key != v.Key() || h.At != v.At {
				t.Fatalf("frame %d: header %+v vs ping %+v", frames, h, v)
			}
		}
		// The frame must decode in isolation to the same record.
		sub := NewBinaryReader(bytes.NewReader(data[:h.Len]))
		if _, err := sub.Next(); err != nil {
			t.Fatalf("frame %d: isolated decode: %v", frames, err)
		}
		if _, err := sub.Next(); err != io.EOF {
			t.Fatalf("frame %d: length %d did not consume exactly one record", frames, h.Len)
		}
		data = data[h.Len:]
		frames++
	}
	if frames != 9 {
		t.Fatalf("walked %d frames, want 9", frames)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("full decoder not at EOF after frame walk")
	}
}

func TestParseFrameHeaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.WriteTraceroute(sampleTraceroute()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ParseFrameHeader(nil); err != io.EOF {
		t.Fatalf("empty slice: err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := ParseFrameHeader(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d parsed without error", cut, len(data))
		}
	}
	if _, err := ParseFrameHeader([]byte{0x00, 0x01}); err == nil {
		t.Fatal("bad magic parsed without error")
	}
}

// TestJSONLReader round-trips both record kinds through the JSONL encoding.
func TestJSONLReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	tr := sampleTraceroute()
	p := samplePing()
	incomplete := sampleTraceroute()
	incomplete.Complete = false
	incomplete.Hops = nil
	if err := w.WriteTraceroute(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePing(p); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTraceroute(incomplete); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewJSONLReader(bytes.NewReader(buf.Bytes()))
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := first.(*Traceroute)
	if !ok {
		t.Fatalf("first record is %T, want *Traceroute", first)
	}
	if got.Key() != tr.Key() || got.At != tr.At || len(got.Hops) != len(tr.Hops) || got.RTT != tr.RTT {
		t.Fatalf("traceroute round-trip mismatch: %+v vs %+v", got, tr)
	}
	second, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gp, ok := second.(*Ping)
	if !ok {
		t.Fatalf("second record is %T, want *Ping", second)
	}
	if gp.Key() != p.Key() || gp.At != p.At || gp.RTT != p.RTT {
		t.Fatalf("ping round-trip mismatch: %+v vs %+v", gp, p)
	}
	third, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := third.(*Traceroute); !ok {
		t.Fatalf("incomplete traceroute decoded as %T", third)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestJSONLReaderBlankLinesAndErrors(t *testing.T) {
	in := "\n" + `{"src_id":1,"dst_id":2,"src":"1.1.1.1","dst":"2.2.2.2","at":60000000000}` + "\n\n"
	r := NewJSONLReader(bytes.NewReader([]byte(in)))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.(*Ping); !ok {
		t.Fatalf("record without hops/complete decoded as %T, want *Ping", rec)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}

	bad := NewJSONLReader(bytes.NewReader([]byte("{not json}\n")))
	if _, err := bad.Next(); err == nil {
		t.Fatal("malformed line decoded without error")
	}
}

// TestBinaryWriterWritten checks that Written tracks frame boundaries
// while records are still buffered: the offsets it reports before each
// write are where the frame walk finds each frame.
func TestBinaryWriterWritten(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	tr := sampleTraceroute()
	var offs []int64
	// Enough records to overflow the 4 KiB buffer several times.
	for i := 0; i < 200; i++ {
		offs = append(offs, w.Written())
		var err error
		if i%3 == 0 {
			err = w.WritePing(samplePing())
		} else {
			err = w.WriteTraceroute(tr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	end := w.Written()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if end != int64(buf.Len()) || w.Written() != end {
		t.Fatalf("Written = %d before and %d after Flush, stream holds %d bytes", end, w.Written(), buf.Len())
	}
	data := buf.Bytes()
	off := 0
	for i, want := range offs {
		if int64(off) != want {
			t.Fatalf("frame %d starts at %d, Written reported %d", i, off, want)
		}
		h, err := ParseFrameHeader(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += h.Len
	}
}
