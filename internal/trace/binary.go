package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
)

// Binary trace format: a compact varint encoding for large traces.
//
//	magic "CSTR" | version byte | events...
//
// Each event is: kind byte, uvarint proc, then per kind:
//
//	R/E/L/A: uvarint addr
//	W/U:     uvarint addr, uvarint value
//	C:       uvarint cycles
//
// Version 2 appends one routing-class byte to every event
// (interconnect.Class). The encoder emits version 1 whenever no event
// is classified, so classic traces stay byte-identical.
const (
	binaryMagic    = "CSTR"
	binaryVersion  = 1
	binaryVersion2 = 2

	// Decode-side sanity bounds (corrupt streams must produce errors,
	// never out-of-range Event fields).
	maxTraceProcs  = 1 << 20
	maxTraceCycles = 1 << 40
)

// EncodeBinary writes the trace in the compact binary format.
func (t *Trace) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	ver := byte(binaryVersion)
	for _, e := range t.Events {
		if e.Class != interconnect.Unclassified {
			ver = binaryVersion2
			break
		}
	}
	if err := bw.WriteByte(ver); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	for _, e := range t.Events {
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := put(uint64(e.Proc)); err != nil {
			return err
		}
		switch e.Kind {
		case Read, ReadEx, Lock, Atomic:
			if err := put(uint64(e.Addr)); err != nil {
				return err
			}
		case Write, Unlock:
			if err := put(uint64(e.Addr)); err != nil {
				return err
			}
			if err := put(e.Value); err != nil {
				return err
			}
		case Compute:
			if err := put(uint64(e.Cycles)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("trace: cannot encode kind %q", e.Kind)
		}
		if ver == binaryVersion2 {
			if e.Class > interconnect.Data {
				return fmt.Errorf("trace: cannot encode class %d", e.Class)
			}
			if err := bw.WriteByte(byte(e.Class)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeBinary parses the compact binary format.
func DecodeBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: short magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion && ver != binaryVersion2 {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	t := &Trace{}
	for {
		kb, err := br.ReadByte()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		e := Event{Kind: Kind(kb)}
		proc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated event: %w", err)
		}
		// Bound the decoded fields: an adversarial or corrupt stream can
		// carry uvarints that overflow int (a negative Proc would index
		// out of bounds in Programs) or int64 cycle counts.
		if proc > maxTraceProcs {
			return nil, fmt.Errorf("trace: implausible processor id %d", proc)
		}
		e.Proc = int(proc)
		switch e.Kind {
		case Read, ReadEx, Lock, Atomic:
			a, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			e.Addr = addr.Addr(a)
		case Write, Unlock:
			a, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			e.Addr, e.Value = addr.Addr(a), v
		case Compute:
			c, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if c > maxTraceCycles {
				return nil, fmt.Errorf("trace: implausible compute span %d", c)
			}
			e.Cycles = int64(c)
		default:
			return nil, fmt.Errorf("trace: unknown kind byte %#x", kb)
		}
		if ver == binaryVersion2 {
			cb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: truncated class byte: %w", err)
			}
			if cb > byte(interconnect.Data) {
				return nil, fmt.Errorf("trace: unknown class byte %#x", cb)
			}
			e.Class = interconnect.Class(cb)
		}
		t.Events = append(t.Events, e)
	}
}
