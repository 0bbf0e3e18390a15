package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"tensorbase/internal/fault"
	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/wire"
)

// Server exposes one shard node over a listener: one request per
// connection, responses streamed as FrameConn frames through an optional
// fault.Link (drops, duplicates, reorders, partitions on the response
// path — the direction whose loss a read client must survive by retrying).
type Server struct {
	node   Node
	ln     net.Listener
	link   *fault.Link
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Serve starts accepting connections for node on ln. link may be nil for a
// perfect wire.
func Serve(ln net.Listener, node Node, link *fault.Link) *Server {
	s := &Server{node: node, ln: ln, link: link}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and waits for in-flight requests.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// sendRows streams tuples in bounded frames; a transport error abandons
// the stream (the client's sequence check detects the break and retries).
func sendRows(fc *wire.FrameConn, schema *table.Schema, rows []table.Tuple) bool {
	for off := 0; off < len(rows); off += rowsPerFrame {
		end := min(off+rowsPerFrame, len(rows))
		frame, err := encodeRowsFrame(schema, rows[off:end])
		if err != nil {
			fc.Send(encodeErr(err))
			return false
		}
		if fc.Send(frame) != nil {
			return false
		}
	}
	return true
}

// serveConn handles one request/response exchange.
func (s *Server) serveConn(conn net.Conn) {
	fc := wire.NewFrameConn(conn, s.link)
	req, err := fc.Recv()
	if err != nil {
		return
	}
	kind, body, err := splitKind(req)
	if err != nil {
		return
	}
	ctx := context.Background()
	switch kind {
	case reqQuery:
		if len(body) < 8 {
			return
		}
		floor := binary.LittleEndian.Uint64(body)
		res, err := s.node.Query(ctx, string(body[8:]), floor)
		if err != nil {
			fc.Send(encodeErr(err))
			return
		}
		if fc.Send(encodeSchema([]byte{respSchema}, res.Schema)) != nil {
			return
		}
		if !sendRows(fc, res.Schema, res.Rows) {
			return
		}
		fc.Send(encodeDone(res.RowsAffected, 0))

	case reqExec:
		res, committed, err := s.node.Exec(ctx, string(body))
		if err != nil {
			fc.Send(encodeErr(err))
			return
		}
		fc.Send(encodeDone(res.RowsAffected, committed))

	case reqLoadModel:
		if len(body) < 8 {
			return
		}
		acc := math.Float64frombits(binary.LittleEndian.Uint64(body))
		m, err := nn.Load(bytes.NewReader(body[8:]))
		if err != nil {
			fc.Send(encodeErr(err))
			return
		}
		if err := s.node.LoadModel(m, acc); err != nil {
			fc.Send(encodeErr(err))
			return
		}
		fc.Send(encodeDone(0, 0))
	}
}
