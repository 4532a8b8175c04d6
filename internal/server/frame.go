package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"streamrel/internal/types"
)

// ErrFrameTooLarge reports a frame longer than MaxFrameBytes, read or
// about to be written.
var ErrFrameTooLarge = fmt.Errorf("server: frame exceeds %d bytes", MaxFrameBytes)

// readBufBytes is the bufio window a frame is decoded in place from; only
// a longer frame is copied, into the reader's spill buffer.
const readBufBytes = 64 << 10

// retainBufBytes bounds the buffer a connection or the encode pool keeps
// between frames, so one huge frame does not pin its size for good.
const retainBufBytes = 1 << 20

// FrameReader reads newline-terminated frames, never holding more than
// MaxFrameBytes (plus one bufio window) of a line, and decodes them through
// a row scratch it keeps from frame to frame.
type FrameReader struct {
	br    *bufio.Reader
	spill []byte
	strs  types.RowStrings
}

// NewFrameReader reads frames from r. A *bufio.Reader at least as large
// as the window is used as it is, so a caller that goes on reading r after
// the JSON phase (the replication handshake) loses no buffered bytes.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, readBufBytes)}
}

// Read decodes the next frame into f, a *Request or *Response.
func (fr *FrameReader) Read(f interface {
	decode([]byte, *types.RowStrings) error
}) error {
	line, err := fr.next()
	if err != nil {
		return err
	}
	return f.decode(line, &fr.strs)
}

// next returns the next frame without its newline, skipping blank lines.
// The bytes are valid until the next call. A final unterminated line is
// still a frame. A line over the cap returns ErrFrameTooLarge with the
// rest of it unread: the connection cannot be resynchronised.
func (fr *FrameReader) next() ([]byte, error) {
	if cap(fr.spill) > retainBufBytes {
		fr.spill = nil
	}
	for {
		line, err := fr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			fr.spill = append(fr.spill[:0], line...)
			for err == bufio.ErrBufferFull {
				if len(fr.spill) > MaxFrameBytes {
					return nil, ErrFrameTooLarge
				}
				line, err = fr.br.ReadSlice('\n')
				fr.spill = append(fr.spill, line...)
			}
			line = fr.spill
		}
		if err != nil && (err != io.EOF || len(line) == 0) {
			return nil, err
		}
		if n := len(line); line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) > MaxFrameBytes {
			return nil, ErrFrameTooLarge
		}
		if len(bytes.TrimSpace(line)) > 0 {
			return line, nil
		}
	}
}

// frame is what FrameWriter sends: a Request or a Response.
type frame interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// EncodeError wraps a failure to render a frame. Nothing was written, so
// the connection is still in step and can carry an error frame instead.
type EncodeError struct{ Err error }

func (e *EncodeError) Error() string {
	return "server: cannot encode frame: " + strings.TrimPrefix(e.Err.Error(), "server: ")
}

func (e *EncodeError) Unwrap() error { return e.Err }

// encodeBufs recycles frame buffers across connections. A frame is encoded
// outside the connection's write lock, so goroutines that share one
// connection (CQ pumps beside responses, callers sharing a Client) render
// in parallel and serialise only on the Write.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// FrameWriter writes frames to one connection, one Write call each.
type FrameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
}

// NewFrameWriter writes frames to conn; a positive timeout bounds each
// Write with a deadline.
func NewFrameWriter(conn net.Conn, timeout time.Duration) *FrameWriter {
	return &FrameWriter{conn: conn, timeout: timeout}
}

// Write sends one frame. An *EncodeError means nothing was sent; any other
// error is the connection's.
func (fw *FrameWriter) Write(f frame) error {
	bp := encodeBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= retainBufBytes {
			encodeBufs.Put(bp)
		}
	}()
	buf, err := f.AppendJSON((*bp)[:0])
	if err == nil && len(buf) > MaxFrameBytes {
		err = ErrFrameTooLarge
	}
	if err != nil {
		return &EncodeError{Err: err}
	}
	buf = append(buf, '\n')
	*bp = buf

	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.timeout > 0 {
		fw.conn.SetWriteDeadline(time.Now().Add(fw.timeout))
		defer fw.conn.SetWriteDeadline(time.Time{})
	}
	_, err = fw.conn.Write(buf)
	return err
}

// WriteResponse sends resp; if it cannot be encoded, the peer gets an
// error frame under the same id (or CQ handle) rather than a dead socket.
func (fw *FrameWriter) WriteResponse(resp *Response) error {
	err := fw.Write(resp)
	if enc, ok := err.(*EncodeError); ok {
		return fw.Write(&Response{ID: resp.ID, CQ: resp.CQ, Close: resp.Close, Batch: resp.Batch, Error: enc.Error()})
	}
	return err
}
