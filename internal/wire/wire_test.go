package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/value"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A length prefix is not trusted with memory: a frame header claiming 1 GiB
// followed by nothing, a payload whose string length claims 1 GiB, and a
// count of 1<<62 values each fail with an error after allocating less than
// 1 MiB. The server reads all three before it has checked any token.
func TestLengthPrefixesDoNotAllocate(t *testing.T) {
	var head [5]byte
	binary.LittleEndian.PutUint32(head[:4], 1<<30)
	head[4] = THello
	var err error
	if n := allocated(func() { _, _, err = ReadFrame(bytes.NewReader(head[:])) }); err == nil || n >= 1<<20 {
		t.Errorf("ReadFrame of a 1 GiB header with no payload: err=%v, %d bytes allocated", err, n)
	}
	payload := binary.AppendUvarint(nil, 1<<30)
	if n := allocated(func() { _, _, err = DecodeErr(payload) }); err == nil || n >= 1<<20 {
		t.Errorf("DecodeErr of a 1 GiB string length: err=%v, %d bytes allocated", err, n)
	}
	if n := allocated(func() { _, err = NewDec(payload).Bytes() }); err == nil || n >= 1<<20 {
		t.Errorf("Dec.Bytes of a 1 GiB block length: err=%v, %d bytes allocated", err, n)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	if n := allocated(func() { _, err = NewDec(huge).Count(MinValueLen) }); err == nil || n >= 1<<20 {
		t.Errorf("Dec.Count of 1<<62 values: err=%v, %d bytes allocated", err, n)
	}
	// A count is accepted exactly up to what the bytes left can hold.
	three := append(binary.AppendUvarint(nil, 3), make([]byte, 3*MinValueLen)...)
	for _, c := range []struct {
		p    []byte
		size int
		ok   bool
	}{
		{three, MinValueLen, true},
		{three[:len(three)-1], MinValueLen, false},
		{three, 3 * MinValueLen, false},
		{binary.AppendUvarint(nil, 1), 0, true},
		{binary.AppendUvarint(nil, 2), 0, false},
	} {
		if _, err := NewDec(c.p).Count(c.size); (err == nil) != c.ok {
			t.Errorf("Count(%d) over %x: err=%v, want ok=%v", c.size, c.p, err, c.ok)
		}
	}
}

// TestFrameRoundTrip: frames of every size class read back whole, including
// ones larger than the first buffer ReadFrame allocates, and a frame cut
// short is an error.
func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk - 1, frameChunk, 3*frameChunk + 7} {
		payload := bytes.Repeat([]byte{0xab}, n)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TExec, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil || typ != TExec || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame: type %d, %d bytes, err %v", n, typ, len(got), err)
		}
		buf.Reset()
		_ = WriteFrame(&buf, TExec, payload)
		if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); n > 0 && err == nil {
			t.Fatalf("%d-byte frame cut short read without error", n)
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, THello, []byte("DBPLW\x01\x00"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0x40, THello})
	f.Add([]byte{1, 0, 0, 0, THealth})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame read is exactly the bytes it consumed, written again.
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("frame %d/%x does not re-encode to its input %x", typ, payload, data)
		}
	})
}

func FuzzDecodePayloads(f *testing.F) {
	f.Add(EncodeErr(CodeProto, "bad frame"))
	f.Add(Health{Role: "primary", Durable: true, Generation: 7, MatEnabled: true, MatHits: 3}.Encode())
	e := NewEnc()
	e.Value(value.Str("table"))
	e.Bytes([]byte("chair"))
	e.Value(value.Int(-42))
	e.Bytes(nil)
	e.Value(value.Bool(true))
	p, _ := e.Payload()
	f.Add(p)
	f.Add(binary.AppendUvarint(nil, 1<<30))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, p []byte) {
		// A count accepted for elements of size bytes fits in what is left.
		for size := range 2 * MinValueLen {
			d := NewDec(p)
			if n, err := d.Count(size); err == nil && (size == 0 && n > 1 || n*size > d.r.Len()) {
				t.Fatalf("Count(%d) accepted %d elements with %d byte(s) left", size, n, d.r.Len())
			}
		}
		if code, msg, err := DecodeErr(p); err == nil {
			if c, m, err := DecodeErr(EncodeErr(code, msg)); err != nil || c != code || m != msg {
				t.Fatalf("error %q/%q round trips to %q/%q, %v", code, msg, c, m, err)
			}
		}
		if h, err := DecodeHealth(p); err == nil {
			if h2, err := DecodeHealth(h.Encode()); err != nil || h2 != h {
				t.Fatalf("health %+v round trips to %+v, %v", h, h2, err)
			}
		}
		// Read as alternating values and byte blocks, what decodes encodes
		// to a payload that decodes to the same.
		d, e := NewDec(p), NewEnc()
		var vals []value.Value
		var blocks [][]byte
		for {
			v, err := d.Value()
			if err != nil {
				break
			}
			e.Value(v)
			vals = append(vals, v)
			b, err := d.Bytes()
			if err != nil {
				break
			}
			e.Bytes(b)
			blocks = append(blocks, b)
		}
		out, err := e.Payload()
		if err != nil {
			t.Fatal(err)
		}
		d = NewDec(out)
		for i, want := range vals {
			if v, err := d.Value(); err != nil || v != want {
				t.Fatalf("value %d: %v round trips to %v, %v", i, want, v, err)
			}
			if i < len(blocks) {
				if b, err := d.Bytes(); err != nil || !bytes.Equal(b, blocks[i]) {
					t.Fatalf("block %d: %x round trips to %x, %v", i, blocks[i], b, err)
				}
			}
		}
	})
}
