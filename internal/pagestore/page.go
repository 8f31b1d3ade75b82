package pagestore

// Heap-page layout and the tuple codec. A page is a contiguous run of
// fixed-size heap slots (one slot for a normal page; a tuple too large for an
// empty page gets a dedicated "jumbo" page spanning enough consecutive
// slots). The in-memory image of a page — a buffer-pool frame — holds exactly
// the payload:
//
//	[0:4]  uint32 LE CRC-32C of data[8:bytes] (computed at flush time)
//	[4:8]  uint32 LE tuple count
//	[8:]   tuples, encoded back to back
//
// On disk the payload occupies the start of its slot run; the remainder of
// the run is padding. Tuples are encoded with the same kind-byte + varint
// scheme the store's logical snapshots use, so the two formats stay
// byte-compatible per value.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/store"
	"repro/internal/value"
)

// pageHeaderLen is the fixed per-page header: CRC plus tuple count.
const pageHeaderLen = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// page is the metadata of one heap page of one relation. Frames come and go
// (buffer pool); the page struct is the durable identity.
type page struct {
	// slot is the first heap slot of the page's run, -1 until first flush.
	slot int64
	// nslots is the run length: 1 for a normal page, more for a jumbo page.
	// Fixed at creation — normal pages only ever grow within one slot, and
	// jumbo pages are sealed by construction (nothing further fits).
	nslots int
	// bytes is the payload length including the header.
	bytes int
	// tuples is the number of tuples encoded in the page.
	tuples int
	// frame is the resident buffer-pool frame, nil while evicted. A nil
	// frame implies the payload at [slot, slot+nslots) is current (eviction
	// writes back first).
	frame *frame
}

// frame is one buffer-pool resident page image.
type frame struct {
	p *page
	// data is the payload; len(data) == p.bytes.
	data []byte
	// pins guards the frame against eviction while an operation is actively
	// reading or appending to it.
	pins int
	// ref is the clock reference bit: set on every touch, cleared as the
	// clock hand sweeps past, evicted when found clear.
	ref bool
	// dirty marks payload bytes not yet written back to the heap file.
	dirty bool
}

// appendTuple encodes one tuple onto dst.
func appendTuple(dst []byte, t value.Tuple) ([]byte, error) {
	var err error
	for _, v := range t {
		if dst, err = store.AppendValue(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// byteCursor decodes the tuple area of a page payload.
type byteCursor struct {
	buf []byte
	off int
}

// field advances past one encoded value and returns its kind and payload:
// the varint of an int, the bytes of a string, the byte of a bool.
func (c *byteCursor) field() (value.Kind, []byte, error) {
	if c.off >= len(c.buf) {
		return 0, nil, fmt.Errorf("pagestore: truncated value")
	}
	kind := value.Kind(c.buf[c.off])
	c.off++
	start := c.off
	switch kind {
	case value.KindInt:
		_, n := binary.Varint(c.buf[c.off:])
		if n <= 0 {
			return 0, nil, fmt.Errorf("pagestore: corrupt int")
		}
		c.off += n
	case value.KindString:
		u, n := binary.Uvarint(c.buf[c.off:])
		if n <= 0 {
			return 0, nil, fmt.Errorf("pagestore: corrupt string length")
		}
		start = c.off + n
		if u > uint64(len(c.buf)-start) {
			return 0, nil, fmt.Errorf("pagestore: truncated string")
		}
		c.off = start + int(u)
	case value.KindBool:
		if c.off >= len(c.buf) {
			return 0, nil, fmt.Errorf("pagestore: truncated bool")
		}
		c.off++
	default:
		return 0, nil, fmt.Errorf("pagestore: corrupt value kind %d", kind)
	}
	return kind, c.buf[start:c.off], nil
}

func (c *byteCursor) readValue() (value.Value, error) {
	kind, p, err := c.field()
	if err != nil {
		return value.Value{}, err
	}
	switch kind {
	case value.KindInt:
		i, _ := binary.Varint(p)
		return value.Int(i), nil
	case value.KindString:
		return value.Str(string(p)), nil
	default:
		return value.Bool(p[0] != 0), nil
	}
}

// skipTuple advances past one encoded tuple of len(ends) fields without
// decoding it, recording where each field's encoding ends: field i spans
// [ends[i-1], ends[i]), field 0 starting where the tuple does.
func (c *byteCursor) skipTuple(ends []int) error {
	for i := range ends {
		if _, _, err := c.field(); err != nil {
			return err
		}
		ends[i] = c.off
	}
	return nil
}

// readTuple decodes one tuple of the given arity.
func (c *byteCursor) readTuple(arity int) (value.Tuple, error) {
	tup := make(value.Tuple, arity)
	for i := range tup {
		v, err := c.readValue()
		if err != nil {
			return nil, err
		}
		tup[i] = v
	}
	return tup, nil
}

// sealHeader fills in the payload header (CRC over the tuple area, tuple
// count) before the frame is written to its slot run.
func sealHeader(data []byte, tuples int) {
	binary.LittleEndian.PutUint32(data[4:8], uint32(tuples))
	binary.LittleEndian.PutUint32(data[0:4], crc32.Checksum(data[pageHeaderLen:], crcTable))
}

// checkHeader verifies a payload read back from the heap file against the
// page metadata recorded in the manifest.
func checkHeader(data []byte, wantTuples int) error {
	if len(data) < pageHeaderLen {
		return fmt.Errorf("pagestore: page shorter than its header")
	}
	if got := int(binary.LittleEndian.Uint32(data[4:8])); got != wantTuples {
		return fmt.Errorf("pagestore: page holds %d tuples, manifest says %d", got, wantTuples)
	}
	if got, want := crc32.Checksum(data[pageHeaderLen:], crcTable), binary.LittleEndian.Uint32(data[0:4]); got != want {
		return fmt.Errorf("pagestore: page checksum mismatch (got %08x, want %08x)", got, want)
	}
	return nil
}
