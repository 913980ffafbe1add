package wire

import (
	"encoding/json"
	"io"
)

// Conn frames requests and responses over one byte stream: each frame is
// one JSON value terminated by a newline. It is the only place the frame
// layout is spelled — the server's sessions, the client SDK and (through
// the SDK) the 2PC coordinator and the cluster controller all read and
// write frames here, so changing the codec is an edit inside this package.
//
// A Conn is not safe for concurrent use; deadlines stay with the caller's
// net.Conn.
type Conn struct {
	enc *json.Encoder
	dec *json.Decoder
	// lim bounds one inbound frame (nil: unbounded, the client side trusts
	// its server). A larger frame starves the decoder mid-value and the
	// read fails — an oversized payload must not buffer unboundedly.
	lim      *io.LimitedReader
	maxFrame int64
	// off is the decoder's stream position after the last frame, so each
	// frame's exact byte size is the offset delta across one decode.
	off int64
}

// NewConn frames rw. maxFrame > 0 bounds every inbound frame to that many
// bytes.
func NewConn(rw io.ReadWriter, maxFrame int64) *Conn {
	c := &Conn{enc: json.NewEncoder(rw), maxFrame: maxFrame}
	var r io.Reader = rw
	if maxFrame > 0 {
		c.lim = &io.LimitedReader{R: rw, N: maxFrame}
		r = c.lim
	}
	c.dec = json.NewDecoder(r)
	return c
}

// read decodes the next frame into v and returns its size in bytes.
func (c *Conn) read(v any) (int64, error) {
	if c.lim != nil {
		c.lim.N = c.maxFrame
	}
	if err := c.dec.Decode(v); err != nil {
		return 0, err
	}
	off := c.dec.InputOffset()
	n := off - c.off
	c.off = off
	return n, nil
}

// ReadRequest decodes the next request frame and returns its byte size —
// the server's admission charge.
func (c *Conn) ReadRequest(req *Request) (int64, error) { return c.read(req) }

// ReadResponse decodes the next response frame.
func (c *Conn) ReadResponse(resp *Response) error {
	_, err := c.read(resp)
	return err
}

// WriteRequest writes one complete request frame.
func (c *Conn) WriteRequest(req *Request) error { return c.enc.Encode(req) }

// WriteResponse writes one complete response frame.
func (c *Conn) WriteResponse(resp *Response) error { return c.enc.Encode(resp) }
