package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tensorbase/internal/fault"
)

func TestFrameConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client, server := NewFrameConn(a, nil), NewFrameConn(b, nil)
	go func() {
		client.Send([]byte("hello"))
		client.Send([]byte("world"))
	}()
	for _, want := range []string{"hello", "world"} {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	// Response direction numbers its own frames.
	go server.Send([]byte("ack"))
	got, err := client.Recv()
	if err != nil || string(got) != "ack" {
		t.Fatalf("response = %q, %v", got, err)
	}
	if err := client.Send(nil); err == nil {
		t.Fatal("empty payload must be rejected")
	}
}

func TestFrameConnDiscardsDuplicates(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	link := fault.NewLink(1)
	link.SetDuplicate(1)
	client, server := NewFrameConn(a, link), NewFrameConn(b, nil)
	go func() {
		for i := 0; i < 3; i++ {
			client.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < 3; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("frame %d = %v", i, got)
		}
	}
	if link.Duplicated() == 0 {
		t.Fatal("link never duplicated")
	}
}

func TestFrameConnDropBreaksStream(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	link := fault.NewLink(1)
	client, server := NewFrameConn(a, link), NewFrameConn(b, nil)
	errc := make(chan error, 1)
	go func() {
		if err := client.Send([]byte("one")); err != nil {
			errc <- err
			return
		}
		link.SetPartitioned(true)
		if err := client.Send([]byte("two")); err != nil { // black-holed
			errc <- err
			return
		}
		link.SetPartitioned(false)
		errc <- client.Send([]byte("three"))
	}()
	if got, err := server.Recv(); err != nil || string(got) != "one" {
		t.Fatalf("first = %q, %v", got, err)
	}
	if _, err := server.Recv(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("gap must break the stream, got %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if link.Dropped() != 1 {
		t.Fatalf("dropped = %d", link.Dropped())
	}
}

func TestFrameConnReorderBreaksStream(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	link := fault.NewLink(1)
	link.SetReorder(1)
	client, server := NewFrameConn(a, link), NewFrameConn(b, nil)
	go func() {
		client.Send([]byte("one")) // held
		client.Send([]byte("two")) // written first, then "one" released
	}()
	if _, err := server.Recv(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("reorder must break the stream, got %v", err)
	}
}

func TestFrameConnRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	c := NewFrameConn(&buf, nil)
	if err := c.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-6] ^= 0x40 // flip one payload bit in transit
	if _, err := NewFrameConn(&buf, nil).Recv(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("corruption must break the stream, got %v", err)
	}
}

func TestFrameConnRejectsInsaneLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := NewFrameConn(bytes.NewBuffer(raw), nil).Recv(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("oversized length = %v, want ErrStreamBroken", err)
	}
}

// TestFrameConnFaultSoak pushes a few hundred frames through a seeded lossy
// link, reconnecting (fresh pipe, fresh seq space) whenever the stream
// breaks — the retry discipline replicas use. Every frame eventually
// arrives exactly once per accepted attempt and in order per connection.
func TestFrameConnFaultSoak(t *testing.T) {
	link := fault.NewLink(42)
	link.SetDrop(0.05)
	link.SetDuplicate(0.05)
	link.SetReorder(0.05)

	for i := 0; i < 200; i++ {
		payload := []byte(fmt.Sprintf("frame-%d", i))
		for attempt := 0; ; attempt++ {
			if attempt > 100 {
				t.Fatalf("frame %d never delivered", i)
			}
			a, b := net.Pipe()
			b.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			client, server := NewFrameConn(a, link), NewFrameConn(b, nil)
			done := make(chan struct{})
			go func() {
				defer close(done)
				client.Send(payload)
				// Push one trailer frame so a held first frame gets
				// flushed (and a dropped one surfaces as a gap).
				client.Send([]byte("trailer"))
			}()
			got, err := server.Recv()
			ok := err == nil && bytes.Equal(got, payload)
			a.Close()
			b.Close()
			<-done
			if ok {
				break
			}
			// Any transport error — stream break, deadline on a
			// double-drop, teardown race — is a reconnect trigger.
		}
	}
}
