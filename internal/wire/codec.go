package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendBytes appends field to b as one length-prefixed field: uvarint
// length, then the bytes.
func AppendBytes(b, field []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(field)))
	return append(b, field...)
}

// ReadBytes pops one AppendBytes field off b and returns it with the rest.
// The field aliases b but is capacity-capped, so appending to it never
// overwrites the next field. Its error wraps ErrStreamBroken.
func ReadBytes(b []byte) (field, rest []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return nil, nil, fmt.Errorf("%w: truncated field", ErrStreamBroken)
	}
	end := sz + int(n)
	return b[sz:end:end], b[end:], nil
}
