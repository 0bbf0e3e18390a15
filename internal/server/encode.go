package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"tensorbase/internal/table"
)

// response is one /query reply. Its JSON form is
//
//	{"session":…,"seq":…,"node":…,"columns":[…],"rows":[[…]],"rows_affected":…,"error":…}
//
// with every field but session left out when zero or empty. Rows are
// encoded straight from the engine's tuples, with no boxed copy between.
type response struct {
	Session      string
	Seq          int64
	Node         string        // which node served a routed read
	Schema       *table.Schema // nil: no columns and no rows
	Rows         []table.Tuple
	RowsAffected int64
	Error        string
}

// bodies holds response buffers between requests, so encoding a result
// appends into memory an earlier response already grew.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse sends r with status. The whole body is encoded before the
// header goes out, so a result JSON cannot carry (a SUM that overflowed to
// +Inf) becomes a 400 with an error body, never a 200 with an empty one.
func writeResponse(w http.ResponseWriter, status int, r *response) {
	bp := bodies.Get().(*[]byte)
	body, err := appendResponse((*bp)[:0], r)
	if err != nil {
		status = http.StatusBadRequest
		// A reply without rows always encodes.
		body, _ = appendResponse(body[:0], &response{Session: r.Session, Seq: r.Seq, Node: r.Node,
			Error: "server: result cannot be encoded as JSON: " + err.Error()})
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	*bp = body
	bodies.Put(bp)
}

// appendResponse appends r's JSON form to b. The bytes are the ones
// encoding/json writes for the same reply: its field order and omitempty
// rules, its HTML-safe string escapes, and its float formatting. A value
// JSON has no form for (±Inf, NaN) returns the error encoding/json
// returns for it, at the first such value.
func appendResponse(b []byte, r *response) ([]byte, error) {
	b = append(b, `{"session":`...)
	b = appendString(b, r.Session)
	if r.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, r.Seq, 10)
	}
	if r.Node != "" {
		b = append(b, `,"node":`...)
		b = appendString(b, r.Node)
	}
	if r.Schema != nil && len(r.Schema.Cols) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range r.Schema.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c.Name)
		}
		b = append(b, ']')
	}
	if r.Schema != nil && len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = appendValue(b, v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if r.RowsAffected != 0 {
		b = append(b, `,"rows_affected":`...)
		b = strconv.AppendInt(b, r.RowsAffected, 10)
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	return append(b, '}'), nil
}

// appendValue appends one engine value: an integer, a float64, a string, a
// float32 array (null when nil), or, for a value of no known type, its
// String form as a string.
func appendValue(b []byte, v table.Value) ([]byte, error) {
	switch v.Type {
	case table.Int64:
		return strconv.AppendInt(b, v.Int, 10), nil
	case table.Float64:
		return appendFloat(b, v.Float, 64)
	case table.Text:
		return appendString(b, v.Str), nil
	case table.FloatVec:
		if v.Vec == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, f := range v.Vec {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, float64(f), 32); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	default:
		return appendString(b, v.String()), nil
	}
}

// appendFloat appends f, a float of the given bit size, as encoding/json
// does: ES6 number formatting, which is %f between 1e-6 and 1e21 and %e
// outside it (comparing in the value's own precision), with a one-digit
// negative exponent written e-7, not e-07.
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, bits)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// it: quote, backslash and control bytes; <, > and & as \u003c, \u003e
// and \u0026; U+2028 and U+2029; and each byte of invalid UTF-8 as
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
