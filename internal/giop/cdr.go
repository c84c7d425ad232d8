// Package giop implements the wire protocol of the Compadres and RTZen
// ORBs: CORBA's Common Data Representation (CDR) for primitive types,
// strings and sequences, and the GIOP message framing (Request/Reply) that
// the paper's marshalling/demarshalling modules — "the most
// computationally-intensive modules of CORBA" — operate on.
//
// The subset implemented is GIOP 1.0 with both byte orders, which is all
// the paper's echo-style benchmark traffic requires.
package giop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Byte order flags as carried in the GIOP header.
const (
	// BigEndian marks big-endian encoding (flag bit clear).
	BigEndian ByteOrder = iota
	// LittleEndian marks little-endian encoding (flag bit set).
	LittleEndian
)

// ByteOrder selects the CDR byte order.
type ByteOrder int

// cdrByteOrder combines reading and appending; both binary.BigEndian and
// binary.LittleEndian satisfy it.
type cdrByteOrder interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

func (o ByteOrder) order() cdrByteOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// String returns the conventional name.
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// Common decode errors.
var (
	// ErrTruncated reports a read past the end of the buffer.
	ErrTruncated = errors.New("giop: truncated message")
	// ErrBadString reports a CDR string without its terminating NUL.
	ErrBadString = errors.New("giop: malformed CDR string")
)

// Encoder marshals values into an aligned CDR stream. The zero value is not
// usable; construct with NewEncoder or arm a reused value with Reset.
// Alignment is relative to the stream origin (base), so an encoder can write
// a CDR encapsulation in place at any offset of a larger buffer — the
// message marshallers use this to build header and body in one pass with no
// intermediate copy.
type Encoder struct {
	order ByteOrder
	buf   []byte
	base  int // buffer offset of the stream origin; alignment is relative to it
}

// NewEncoder returns an encoder with the given byte order. The initial
// buffer may be nil; providing a pooled buffer avoids allocation on the hot
// marshalling path.
func NewEncoder(order ByteOrder, buf []byte) *Encoder {
	return &Encoder{order: order, buf: buf[:0]}
}

// Reset re-arms the encoder to append a new stream to buf with the given
// byte order, treating the current end of buf as the stream origin for
// alignment. It lets one Encoder value (stack-allocated or pooled) serve any
// number of messages without reallocating.
func (e *Encoder) Reset(order ByteOrder, buf []byte) {
	e.order, e.buf, e.base = order, buf, len(buf)
}

// Bytes returns the whole backing buffer, including anything that preceded
// the stream origin.
func (e *Encoder) Bytes() []byte { return e.buf }

// align pads the stream so the next value starts at a multiple of n from the
// stream origin.
func (e *Encoder) align(n int) {
	for (len(e.buf)-e.base)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends one octet.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBool appends a CDR boolean.
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteULong appends an unsigned long with 4-byte alignment.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	e.buf = e.order.order().AppendUint32(e.buf, v)
}

// WriteULongLong appends an unsigned long long with 8-byte alignment.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	e.buf = e.order.order().AppendUint64(e.buf, v)
}

// WriteDouble appends an IEEE 754 double with 8-byte alignment.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: ulong length including the terminating
// NUL, the bytes, then NUL.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a CDR sequence<octet>: ulong length then the bytes.
func (e *Encoder) WriteOctetSeq(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder unmarshals an aligned CDR stream produced by Encoder.
type Decoder struct {
	order ByteOrder
	buf   []byte
	pos   int
}

// NewDecoder returns a decoder over buf with the given byte order.
func NewDecoder(order ByteOrder, buf []byte) *Decoder {
	return &Decoder{order: order, buf: buf}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the read offset.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) align(n int) {
	for d.pos%n != 0 {
		d.pos++
	}
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.pos, len(d.buf))
	}
	return nil
}

// ReadOctet reads one octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBool reads a CDR boolean.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadOctet()
	return v != 0, err
}

// ReadULong reads an unsigned long.
func (d *Decoder) ReadULong() (uint32, error) {
	d.align(4)
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := d.order.order().Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadULongLong reads an unsigned long long.
func (d *Decoder) ReadULongLong() (uint64, error) {
	d.align(8)
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := d.order.order().Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

// ReadDouble reads an IEEE 754 double.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string.
func (d *Decoder) ReadString() (string, error) {
	raw, err := d.readStringBytes()
	return string(raw), err
}

// readStringBytes reads a CDR string as the bytes before its terminator,
// aliasing the decoder's buffer.
func (d *Decoder) readStringBytes() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length string encoding", ErrBadString)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	raw := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if raw[n-1] != 0 {
		return nil, fmt.Errorf("%w: missing NUL terminator", ErrBadString)
	}
	return raw[:n-1], nil
}

// ReadOctetSeq reads a CDR sequence<octet>. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}
