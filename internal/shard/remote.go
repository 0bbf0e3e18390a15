package shard

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/wire"
)

// RemoteNode is a shard behind a Server, reached by dialing per request.
// Reads retry whole requests on fresh connections when the stream breaks
// (drop, reorder, corruption) or stalls past the read deadline (partition);
// writes never retry on transport errors — a retried INSERT that did land
// would double-apply — so those surface as ErrUnavailable for the caller
// to decide.
type RemoteNode struct {
	name    string
	dial    func() (net.Conn, error)
	timeout time.Duration
	retries int
}

// NewRemoteNode returns a client for the shard server at addr.
func NewRemoteNode(name, addr string) *RemoteNode {
	n := &RemoteNode{name: name, timeout: 2 * time.Second, retries: 5}
	n.dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, n.timeout) }
	return n
}

// Name implements Node.
func (n *RemoteNode) Name() string { return n.name }

// Healthy implements Node; remote liveness is discovered per request.
func (n *RemoteNode) Healthy() bool { return true }

// wireResp is one fully-received response stream.
type wireResp struct {
	schema       *table.Schema
	rows         []table.Tuple
	rowsAffected int64
	committedCSN uint64
}

// attempt runs one request/response exchange on one fresh connection.
// A non-nil transportErr means the exchange may be retried; appErr is the
// server's answer and final.
func (n *RemoteNode) attempt(ctx context.Context, req []byte) (resp *wireResp, appErr, transportErr error) {
	conn, err := n.dial()
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(n.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	fc := wire.NewFrameConn(conn, nil)
	if err := fc.Send(req); err != nil {
		return nil, nil, err
	}
	r := &wireResp{}
	for {
		frame, err := fc.Recv()
		if err != nil {
			return nil, nil, err
		}
		kind, body, err := splitKind(frame)
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case respErr:
			return nil, decodeErr(body), nil
		case respSchema:
			s, _, err := decodeSchema(body)
			if err != nil {
				return nil, nil, err
			}
			r.schema = s
		case respRows:
			if r.schema == nil {
				return nil, nil, fmt.Errorf("shard: rows before schema")
			}
			rows, err := decodeRowsFrame(r.schema, body)
			if err != nil {
				return nil, nil, err
			}
			r.rows = append(r.rows, rows...)
		case respDone:
			r.rowsAffected, r.committedCSN, err = decodeDone(body)
			if err != nil {
				return nil, nil, err
			}
			return r, nil, nil
		default:
			return nil, nil, fmt.Errorf("shard: unknown response kind %d", kind)
		}
	}
}

// roundTrip drives attempts. Reads (retriable) burn fresh connections on
// transport errors; writes fail on the first one.
func (n *RemoteNode) roundTrip(ctx context.Context, req []byte, retriable bool) (*wireResp, error) {
	attempts := 1
	if retriable {
		attempts += n.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, appErr, transportErr := n.attempt(ctx, req)
		if transportErr == nil {
			if appErr != nil {
				return nil, appErr
			}
			return resp, nil
		}
		lastErr = transportErr
	}
	return nil, fmt.Errorf("%w: %s unreachable after %d attempts: %v", ErrUnavailable, n.name, attempts, lastErr)
}

// Query implements Node.
func (n *RemoteNode) Query(ctx context.Context, sqlText string, floor uint64) (*engine.Result, error) {
	resp, err := n.roundTrip(ctx, encodeQueryReq(sqlText, floor), true)
	if err != nil {
		return nil, err
	}
	if resp.schema == nil {
		return nil, fmt.Errorf("shard: %s returned no schema", n.name)
	}
	return &engine.Result{Schema: resp.schema, Rows: resp.rows, RowsAffected: resp.rowsAffected}, nil
}

// Exec implements Node.
func (n *RemoteNode) Exec(ctx context.Context, sqlText string) (*engine.Result, uint64, error) {
	resp, err := n.roundTrip(ctx, encodeExecReq(sqlText), false)
	if err != nil {
		return nil, 0, err
	}
	return &engine.Result{RowsAffected: resp.rowsAffected}, resp.committedCSN, nil
}

// LoadModel implements Node.
func (n *RemoteNode) LoadModel(m *nn.Model, accuracy float64) error {
	var buf bytes.Buffer
	if err := nn.Save(&buf, m); err != nil {
		return err
	}
	_, err := n.roundTrip(context.Background(), encodeLoadModelReq(buf.Bytes(), accuracy), false)
	return err
}
