package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"tensorbase/internal/engine"
	"tensorbase/internal/table"
	"tensorbase/internal/wire"
)

// Wire protocol between a shard client and a shard server, carried as
// opaque payloads inside wire.FrameConn frames (which add sequencing and
// CRC). One request per connection: the client sends a single request
// frame, the server streams response frames, and the connection closes.
// That shape is what makes fault recovery trivial — any break mid-stream
// means "redial and resend the whole request", with no resumption state.
// Reads are safely retried that way; writes are not (a duplicated INSERT
// would double-apply), so write transport errors surface to the caller.

// Request kinds (first payload byte).
const (
	reqQuery byte = iota + 1
	reqExec
	reqLoadModel
)

// Response kinds (first payload byte).
const (
	respSchema byte = iota + 1
	respRows
	respDone
	respErr
)

// Typed error codes inside a respErr payload, so retriable conditions
// survive the wire.
const (
	errGeneric byte = iota
	errUnavailable
	errLag
)

// rowsPerFrame bounds one respRows frame; vector-heavy rows stay well
// under the transport's frame cap.
const rowsPerFrame = 256

// encodeSchema serialises a schema: uvarint column count, then per column
// a length-prefixed name and one type byte.
func encodeSchema(buf []byte, s *table.Schema) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, c := range s.Cols {
		buf = wire.AppendBytes(buf, []byte(c.Name))
		buf = append(buf, byte(c.Type))
	}
	return buf
}

func decodeSchema(buf []byte) (*table.Schema, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > 1<<16 {
		return nil, nil, errors.New("shard: bad schema header")
	}
	buf = buf[sz:]
	cols := make([]table.Column, 0, n)
	for i := uint64(0); i < n; i++ {
		name, rest, err := wire.ReadBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) < 1 {
			return nil, nil, errors.New("shard: truncated column type")
		}
		cols = append(cols, table.Column{Name: string(name), Type: table.ColType(rest[0])})
		buf = rest[1:]
	}
	s, err := table.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return s, buf, nil
}

// encodeRowsFrame packs up to rowsPerFrame tuples into one respRows
// payload, each row a length-prefixed table.Encode record.
func encodeRowsFrame(s *table.Schema, rows []table.Tuple) ([]byte, error) {
	buf := []byte{respRows}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, t := range rows {
		rec, err := table.Encode(s, t)
		if err != nil {
			return nil, err
		}
		buf = wire.AppendBytes(buf, rec)
	}
	return buf, nil
}

func decodeRowsFrame(s *table.Schema, buf []byte) ([]table.Tuple, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > rowsPerFrame {
		return nil, errors.New("shard: bad rows frame")
	}
	buf = buf[sz:]
	rows := make([]table.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		rec, rest, err := wire.ReadBytes(buf)
		if err != nil {
			return nil, err
		}
		t, err := table.Decode(s, rec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, t)
		buf = rest
	}
	return rows, nil
}

// encodeDone builds the terminal frame of a successful response.
func encodeDone(rowsAffected int64, committedCSN uint64) []byte {
	buf := make([]byte, 0, 1+16)
	buf = append(buf, respDone)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rowsAffected))
	return binary.LittleEndian.AppendUint64(buf, committedCSN)
}

func decodeDone(buf []byte) (rowsAffected int64, committedCSN uint64, err error) {
	if len(buf) != 16 {
		return 0, 0, errors.New("shard: bad done frame")
	}
	return int64(binary.LittleEndian.Uint64(buf)), binary.LittleEndian.Uint64(buf[8:]), nil
}

// encodeErr wraps an error for the wire, preserving its retriability class.
func encodeErr(err error) []byte {
	code := errGeneric
	switch {
	case errors.Is(err, ErrUnavailable):
		code = errUnavailable
	case errors.Is(err, engine.ErrLag):
		code = errLag
	}
	return append([]byte{respErr, code}, err.Error()...)
}

// decodeErr rebuilds a typed error from a respErr payload body (after the
// kind byte).
func decodeErr(buf []byte) error {
	if len(buf) < 1 {
		return errors.New("shard: bad error frame")
	}
	msg := string(buf[1:])
	switch buf[0] {
	case errUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	case errLag:
		return fmt.Errorf("%w: %s", engine.ErrLag, msg)
	default:
		return errors.New(msg)
	}
}

// encodeQueryReq builds a reqQuery payload: floor, then the SQL text.
func encodeQueryReq(sqlText string, floor uint64) []byte {
	buf := make([]byte, 0, 9+len(sqlText))
	buf = append(buf, reqQuery)
	buf = binary.LittleEndian.AppendUint64(buf, floor)
	return append(buf, sqlText...)
}

// encodeExecReq builds a reqExec payload.
func encodeExecReq(sqlText string) []byte {
	return append([]byte{reqExec}, sqlText...)
}

// encodeLoadModelReq ships a serialised model plus its accuracy.
func encodeLoadModelReq(blob []byte, accuracy float64) []byte {
	buf := []byte{reqLoadModel}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(accuracy))
	return append(buf, blob...)
}

// splitKind pops the request/response kind byte.
func splitKind(payload []byte) (byte, []byte, error) {
	if len(payload) == 0 {
		return 0, nil, errors.New("shard: empty payload")
	}
	return payload[0], payload[1:], nil
}
