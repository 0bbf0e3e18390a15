// Package wire holds the replication stream's framer (FrameConn) and the
// field codec (AppendBytes/ReadBytes) that both the replication messages
// inside its frames and the WAL's records are encoded with.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"tensorbase/internal/fault"
)

// FrameConn carries opaque payloads over any io.ReadWriter (net.Pipe in
// tests, TCP between nodes) as sequence-numbered CRC-framed blobs.
//
// Wire format, per frame:
//
//	u32 len | u64 seq | payload | u32 CRC32-C(seq|payload)
//
// The sender routes every frame through an optional fault.Link, the
// lossy-wire model the replication tests drive: drops are silent,
// a held frame is released after its successor (one-slot reorder),
// duplicates are written twice, delays sleep in-line. The receiver enforces
// the sequence discipline those faults attack: a duplicate (seq ≤ last
// seen) is discarded, while a gap or reorder surfaces ErrStreamBroken — the
// caller's signal to drop the connection and start over on a fresh one.
// Each direction of a connection numbers its own frames, so one FrameConn
// per endpoint covers request/response traffic.

// maxWireFrame bounds one payload; anything larger in a length field is
// damage or a protocol break.
const maxWireFrame = 64 << 20

// frameCRCSize is the CRC32-C trailer appended to every frame.
const frameCRCSize = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrStreamBroken reports CRC failure, a sequence gap or reorder, or a
// malformed length or field — the stream cannot be trusted past this point.
var ErrStreamBroken = errors.New("wire: stream broken")

// FrameConn is one endpoint's view of a framed connection. Not safe for
// concurrent use; callers serialise request/response exchanges.
type FrameConn struct {
	rw      io.ReadWriter
	link    *fault.Link
	sendSeq uint64
	recvSeq uint64
	held    []byte
}

// NewFrameConn wraps rw. link may be nil for a perfect wire.
func NewFrameConn(rw io.ReadWriter, link *fault.Link) *FrameConn {
	return &FrameConn{rw: rw, link: link}
}

// Send frames payload and writes it, applying the link's verdict.
func (c *FrameConn) Send(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxWireFrame {
		return fmt.Errorf("wire: bad frame payload size %d", len(payload))
	}
	c.sendSeq++
	frame := make([]byte, 0, 4+8+len(payload)+frameCRCSize)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(8+len(payload)))
	frame = binary.LittleEndian.AppendUint64(frame, c.sendSeq)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], castagnoli))

	v := c.link.Next()
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	switch {
	case v.Drop:
		return nil
	case v.Hold && c.held == nil:
		c.held = frame
		return nil
	}
	if _, err := c.rw.Write(frame); err != nil {
		return err
	}
	if v.Dup {
		if _, err := c.rw.Write(frame); err != nil {
			return err
		}
	}
	if c.held != nil {
		held := c.held
		c.held = nil
		if _, err := c.rw.Write(held); err != nil {
			return err
		}
		c.link.Released()
	}
	return nil
}

// Recv reads the next in-order payload. Duplicates are skipped silently;
// anything else out of order is ErrStreamBroken. io errors (including read
// deadlines, the partition detector) pass through.
func (c *FrameConn) Recv() ([]byte, error) {
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n < 9 || n > maxWireFrame+8 {
			return nil, fmt.Errorf("%w: frame length %d", ErrStreamBroken, n)
		}
		body := make([]byte, n+frameCRCSize)
		if _, err := io.ReadFull(c.rw, body); err != nil {
			return nil, err
		}
		if crc32.Checksum(body[:n], castagnoli) != binary.LittleEndian.Uint32(body[n:]) {
			return nil, fmt.Errorf("%w: frame CRC mismatch", ErrStreamBroken)
		}
		seq := binary.LittleEndian.Uint64(body[:8])
		if seq <= c.recvSeq {
			continue // duplicate delivery
		}
		if seq != c.recvSeq+1 {
			return nil, fmt.Errorf("%w: sequence gap (%d after %d)", ErrStreamBroken, seq, c.recvSeq)
		}
		c.recvSeq = seq
		return body[8:n], nil
	}
}
