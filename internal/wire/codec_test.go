package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestBytesField(t *testing.T) {
	b := AppendBytes(nil, []byte("first"))
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte("third"))
	var got []string
	for rest := b; len(rest) > 0; {
		var f []byte
		var err error
		if f, rest, err = ReadBytes(rest); err != nil {
			t.Fatal(err)
		}
		got = append(got, string(f))
	}
	if want := []string{"first", "", "third"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fields = %q, want %q", got, want)
	}

	// Appending to a returned field reallocates instead of writing over
	// the next field's length prefix.
	first, rest, _ := ReadBytes(b)
	_ = append(first, "XXXX"...)
	if second, _, err := ReadBytes(rest); err != nil || len(second) != 0 {
		t.Fatalf("next field after append = (%q, %v)", second, err)
	}

	for name, bad := range map[string][]byte{
		"truncated length": {0x80},
		"truncated body":   AppendBytes(nil, []byte("body"))[:3],
	} {
		if _, _, err := ReadBytes(bad); !errors.Is(err, ErrStreamBroken) {
			t.Errorf("%s = %v, want ErrStreamBroken", name, err)
		}
	}
}
