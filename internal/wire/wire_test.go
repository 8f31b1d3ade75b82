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
// followed by nothing, and a payload whose string length claims 1 GiB, each
// fail with an error after allocating less than 1 MiB. The server reads both
// before it has checked any token.
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
	f.Fuzz(func(t *testing.T, p []byte) {
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
