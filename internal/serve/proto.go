// TCP front end: codec negotiation plus the two wire protocols.
//
// Every connection speaks frames of a 4-byte big-endian body length
// followed by one body, with bodies capped at maxFrame. Two codecs share
// that framing:
//
//   - Legacy JSON (the default): each body is one JSON object. Requests
//     carry a client-chosen id echoed in the response, so a client may
//     pipeline any number of requests over one connection; the server
//     answers each as its operation completes, not necessarily in order.
//
//     request:  {"id": 7, "op": "enqueue", "arg": 3}
//     keyed:    {"id": 9, "key": "user:42", "op": "enqueue", "arg": 3}
//     response: {"id": 7, "class": "MOP", "invoke": 812, "respond": 844}
//     error:    {"id": 8, "error": "serve: type queue has no operation \"pop\""}
//
//   - Binary (negotiated): a connection that opens with the wire magic
//     gets the compact frame codec of wire.go — a negotiated op table,
//     varint headers, and tagged values. The server tells the codecs
//     apart from the first byte alone: maxFrame keeps a JSON length
//     header's first byte at 0x00, the magic starts with 'L'.
//
// The key field names the served object on a sharded deployment (see
// shard.go): the router hashes it onto a shard cluster. Single-object
// servers reject keyed requests and shard routers require the key, so a
// client can never silently talk to the wrong topology. Sharded
// responses echo the shard index that served them (omitted when zero —
// and always, therefore, on single-object servers).
//
// A frame body that would exceed maxFrame — in either direction — is
// answered with a typed protocol error rather than silently dropped: an
// oversized response turns into an error response carrying the request's
// id (the connection stays usable), while an oversized request poisons
// the byte stream and is answered with a protocol-fatal error frame
// (id −1) before the connection closes.
//
// Arguments and return values use the history interchange encoding of
// internal/histio (integers, strings, booleans, null, {p,c} edges and
// {k,v} pairs); the binary codec's value encoding mirrors it one-to-one.
package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"lintime/internal/classify"
	"lintime/internal/histio"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// maxFrame bounds a frame body; larger announcements are protocol errors.
const maxFrame = 1 << 20

// Codec names, as negotiated on connect and reported in metrics
// (serve_connections_total{codec="..."}).
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// frameSizeError is the typed protocol violation for a frame body beyond
// maxFrame, in either direction; its text is what the peer receives in
// the error frame.
type frameSizeError struct{ n int }

func (e *frameSizeError) Error() string {
	return fmt.Sprintf("serve: protocol: frame of %d bytes exceeds the %d-byte limit", e.n, maxFrame)
}

// request is one decoded protocol request, independent of the codec that
// carried it.
type request struct {
	id  int64
	key string // served object (sharded mode); empty on single-object servers
	op  string
	arg spec.Value
	// trace is the client-side span id carried in the wire trace context;
	// 0 (the wire encoding's absent value) means the request is untraced.
	trace int64
}

// traceParent maps the wire trace-context value onto the substrate's
// parent-span convention: 0 on the wire means "no trace" (-1 inside).
func traceParent(trace int64) int64 {
	if trace == 0 {
		return -1
	}
	return trace
}

// response is one decoded protocol response. A non-empty err carries a
// failure (the other result fields are unset); id is always echoed.
type response struct {
	id      int64
	ret     spec.Value
	class   classify.Class
	shard   int
	invoke  int64
	respond int64
	err     string
}

func errResponse(id int64, msg string) response { return response{id: id, err: msg} }

type wireRequest struct {
	ID  int64           `json:"id"`
	Key string          `json:"key,omitempty"` // served object (sharded mode)
	Op  string          `json:"op"`
	Arg json.RawMessage `json:"arg,omitempty"`
	// Trace is the optional trace context: the client-side span id the
	// server records as the operation's causal parent. omitempty keeps
	// untraced request bodies byte-identical to the pre-tracing protocol.
	Trace int64 `json:"trace,omitempty"`
}

type wireResponse struct {
	ID      int64           `json:"id"`
	Ret     json.RawMessage `json:"ret,omitempty"`
	Class   string          `json:"class,omitempty"`
	Shard   int             `json:"shard,omitempty"` // shard that served a keyed request
	Invoke  int64           `json:"invoke"`
	Respond int64           `json:"respond"`
	Err     string          `json:"error,omitempty"`
}

// frameBuf is a pooled JSON-encoding buffer: the length header and JSON
// body are assembled in one reused []byte, so the steady-state write path
// performs a single conn.Write with no per-frame allocation. Only the
// write path pools: decoded requests hold json.RawMessage views into the
// read buffer, which must therefore stay owned by the request.
type frameBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var frameBufPool = sync.Pool{New: func() any {
	fb := &frameBuf{}
	fb.enc = json.NewEncoder(&fb.buf)
	return fb
}}

func writeFrame(w io.Writer, v any) error {
	fb := frameBufPool.Get().(*frameBuf)
	defer frameBufPool.Put(fb)
	fb.buf.Reset()
	fb.buf.Write([]byte{0, 0, 0, 0}) // length header placeholder
	if err := fb.enc.Encode(v); err != nil {
		return err
	}
	frame := fb.buf.Bytes()
	body := frame[4:]
	if n := len(body); n > 0 && body[n-1] == '\n' {
		// json.Encoder appends a newline json.Marshal would not emit.
		body = body[:n-1]
		frame = frame[:len(frame)-1]
	}
	if len(body) > maxFrame {
		return &frameSizeError{n: len(body)}
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	_, err := w.Write(frame)
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return &frameSizeError{n: int(n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// frontend is the shared TCP front half of a Server (single object) and
// a ShardSet router (many objects): listener bookkeeping, per-connection
// reader goroutines, codec negotiation, per-request handler fan-out, and
// the graceful teardown that flushes every accepted request's response
// before its connection closes.
//
// Teardown protocol: each connection handler owns a private request
// WaitGroup, so every Add happens in the reader goroutine before the
// reader exits — never racing a Wait — and the handler only closes its
// connection after all pending responses are written. A drain therefore
// shuts reads down (CloseRead where the transport supports it), lets the
// readers run dry, and waits on connWG; nothing in flight is dropped.
type frontend struct {
	dispatch func(request) response
	draining func() bool
	opNames  []string // negotiated op table; opcode = index

	// Per-codec connection counters; nil until the owner wires metrics.
	connsJSON   *obs.Counter
	connsBinary *obs.Counter

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	connWG    sync.WaitGroup
}

func (f *frontend) init(dispatch func(request) response, draining func() bool, opNames []string) {
	f.dispatch = dispatch
	f.draining = draining
	f.opNames = opNames
	f.conns = map[net.Conn]struct{}{}
}

// serve accepts connections on ln until the listener is closed (by a
// drain, or externally). It returns nil on a drain-initiated close.
func (f *frontend) serve(ln net.Listener) error {
	f.mu.Lock()
	f.listeners = append(f.listeners, ln)
	f.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if f.draining() {
				return nil
			}
			return err
		}
		f.mu.Lock()
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.connWG.Add(1)
		go f.handleConn(conn)
	}
}

func (f *frontend) handleConn(conn net.Conn) {
	defer f.connWG.Done()
	// Codec negotiation by peeking the first four bytes: the wire magic
	// opens a binary connection, anything else (including a JSON frame's
	// length header, whose first byte maxFrame keeps at 0x00) stays on
	// the legacy JSON codec.
	br := bufio.NewReaderSize(conn, 16<<10)
	peek, perr := br.Peek(len(wireMagic))
	binaryConn := perr == nil && string(peek) == wireMagic
	if binaryConn {
		if f.connsBinary != nil {
			f.connsBinary.Inc()
		}
	} else if f.connsJSON != nil {
		f.connsJSON.Inc()
	}
	var reqs sync.WaitGroup
	var wmu sync.Mutex // serializes response frames from concurrent requests
	if binaryConn {
		f.serveBinaryConn(conn, br, &reqs, &wmu)
	} else {
		f.serveJSONConn(conn, br, &reqs, &wmu)
	}
	// Flush every accepted request's response before the connection dies:
	// requests that raced a drain get ErrDraining responses and finish
	// quickly, so this converges as soon as reads stop.
	reqs.Wait()
	conn.Close()
	f.mu.Lock()
	delete(f.conns, conn)
	f.mu.Unlock()
}

// serveJSONConn is the legacy JSON read loop. An oversized request frame
// is answered with a protocol-fatal error frame (id −1) before the
// connection closes; other read errors just end the connection.
func (f *frontend) serveJSONConn(conn net.Conn, br *bufio.Reader, reqs *sync.WaitGroup, wmu *sync.Mutex) {
	for {
		var wreq wireRequest
		if err := readFrame(br, &wreq); err != nil {
			var fse *frameSizeError
			if errors.As(err, &fse) {
				wmu.Lock()
				_ = writeFrame(conn, wireResponse{ID: errProtoID, Err: fse.Error()})
				wmu.Unlock()
			}
			return
		}
		reqs.Add(1)
		go func(wreq wireRequest) {
			defer reqs.Done()
			var resp response
			if arg, err := histio.DecodeValue(wreq.Arg); err != nil {
				resp = errResponse(wreq.ID, err.Error())
			} else {
				resp = f.dispatch(request{id: wreq.ID, key: wreq.Key, op: wreq.Op, arg: arg, trace: wreq.Trace})
			}
			wmu.Lock()
			defer wmu.Unlock()
			// A write failure means the client went away; the operation
			// itself already completed and is recorded server-side.
			_ = writeJSONResponse(conn, resp)
		}(wreq)
	}
}

// writeJSONResponse encodes and writes one response frame. A response
// body beyond maxFrame degrades to a typed error response carrying the
// same id, so the client learns why its call failed instead of watching
// the frame silently vanish.
func writeJSONResponse(w io.Writer, resp response) error {
	wr := wireResponse{ID: resp.id, Err: resp.err}
	if resp.err == "" {
		ret, err := histio.EncodeValue(resp.ret)
		if err != nil {
			wr = wireResponse{ID: resp.id, Err: err.Error()}
		} else {
			wr = wireResponse{ID: resp.id, Ret: ret, Class: resp.class.String(),
				Shard: resp.shard, Invoke: resp.invoke, Respond: resp.respond}
		}
	}
	err := writeFrame(w, wr)
	var fse *frameSizeError
	if errors.As(err, &fse) {
		return writeFrame(w, wireResponse{ID: resp.id, Err: fse.Error()})
	}
	return err
}

// serveBinaryConn negotiates and runs the binary codec: consume the
// client hello, answer with the op table, then dispatch request frames.
// A malformed request body is answered per-request (length framing keeps
// the stream in sync), but an oversized announcement is protocol-fatal:
// error frame with id −1, then close.
func (f *frontend) serveBinaryConn(conn net.Conn, br *bufio.Reader, reqs *sync.WaitGroup, wmu *sync.Mutex) {
	var hello [len(wireMagic) + 1]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	if v := hello[len(wireMagic)]; v != wireVersion {
		wmu.Lock()
		_ = writeBinaryError(conn, errProtoID,
			fmt.Sprintf("serve: binary protocol version %d not supported (have %d)", v, wireVersion))
		wmu.Unlock()
		return
	}
	bp := frameOut()
	*bp = appendHello(*bp, f.opNames)
	wmu.Lock()
	err := finishFrame(conn, *bp)
	wmu.Unlock()
	frameIn(bp)
	if err != nil {
		return
	}
	var hdr [4]byte
	var body []byte // reused: parseRequest copies what outlives the frame
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			wmu.Lock()
			_ = writeBinaryError(conn, errProtoID, (&frameSizeError{n: int(n)}).Error())
			wmu.Unlock()
			return
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		req, err := parseRequest(body, f.opNames)
		if err != nil {
			wmu.Lock()
			werr := writeBinaryError(conn, req.id, err.Error())
			wmu.Unlock()
			if werr != nil {
				return
			}
			continue
		}
		reqs.Add(1)
		go func(req request) {
			defer reqs.Done()
			resp := f.dispatch(req)
			wmu.Lock()
			defer wmu.Unlock()
			_ = writeBinaryResponse(conn, resp)
		}(req)
	}
}

// writeBinaryResponse encodes and writes one binary response frame from a
// pooled buffer. Encoding failures and oversized bodies degrade to typed
// error frames carrying the same id.
func writeBinaryResponse(w io.Writer, resp response) error {
	bp := frameOut()
	defer frameIn(bp)
	b, err := appendResponse(*bp, resp)
	if err != nil {
		b = appendErrorFrame((*bp)[:4], resp.id, err.Error())
	} else if len(b)-4 > maxFrame {
		b = appendErrorFrame((*bp)[:4], resp.id, (&frameSizeError{n: len(b) - 4}).Error())
	}
	*bp = b
	return finishFrame(w, b)
}

func writeBinaryError(w io.Writer, id int64, msg string) error {
	bp := frameOut()
	defer frameIn(bp)
	*bp = appendErrorFrame(*bp, id, msg)
	return finishFrame(w, *bp)
}

func (f *frontend) closeListeners() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.listeners = nil
}

// shutdownConns ends every open connection gracefully: reads shut down
// first (no new requests), the per-connection handlers flush their
// pending responses and close, and the call returns once all handler
// goroutines are gone.
func (f *frontend) shutdownConns() {
	f.mu.Lock()
	conns := make([]net.Conn, 0, len(f.conns))
	for conn := range f.conns {
		conns = append(conns, conn)
	}
	f.mu.Unlock()
	for _, conn := range conns {
		if cr, ok := conn.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			conn.Close()
		}
	}
	f.connWG.Wait()
}

// Serve accepts connections on ln until the listener is closed (by a
// drain, or externally). It returns nil on a drain-initiated close.
func (s *Server) Serve(ln net.Listener) error {
	return s.fe.serve(ln)
}

func (s *Server) handleRequest(req request) response {
	if req.key != "" {
		return errResponse(req.id,
			"serve: single-object server: request has an object key (connect to a shard router, or drop the key)")
	}
	r, err := s.call(req.op, req.arg, traceParent(req.trace))
	if err != nil {
		return errResponse(req.id, err.Error())
	}
	return response{id: req.id, ret: r.Ret, class: r.Class,
		invoke: int64(r.Invoke), respond: int64(r.Respond)}
}

// clientResp pairs a decoded response with any local decode failure, so
// call() can distinguish a server-reported error from a client-side one.
type clientResp struct {
	resp      response
	decodeErr error
}

// Client is a TCP client for the serving protocol. Safe for concurrent
// use: calls are pipelined over the single connection and matched to
// responses by id, on either codec.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	codec   string
	opCodes map[string]uint64 // binary codec: negotiated op table
	caps    byte              // binary codec: server capabilities from the hello
	traced  atomic.Bool
	wmu     sync.Mutex
	nextID  atomic.Int64

	mu      sync.Mutex
	pending map[int64]chan clientResp
	readErr error
	closed  chan struct{}
}

// Dial connects to a serving-layer address on the legacy JSON codec.
func Dial(addr string) (*Client, error) { return DialCodec(addr, CodecJSON) }

// DialCodec connects on the chosen codec: CodecJSON (the default wire
// format, also what an empty string selects) or CodecBinary (negotiates
// the compact frame codec of wire.go on connect).
func DialCodec(addr, codec string) (*Client, error) {
	switch codec {
	case "", CodecJSON:
		codec = CodecJSON
	case CodecBinary:
	default:
		return nil, fmt.Errorf("serve: unknown codec %q (have %s, %s)", codec, CodecJSON, CodecBinary)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		codec:   codec,
		pending: map[int64]chan clientResp{},
		closed:  make(chan struct{}),
	}
	if codec == CodecBinary {
		if err := c.helloBinary(); err != nil {
			conn.Close()
			return nil, err
		}
		go c.readLoopBinary()
	} else {
		go c.readLoopJSON()
	}
	return c, nil
}

// Codec reports the negotiated codec name.
func (c *Client) Codec() string { return c.codec }

// SetTraced toggles the client's trace context: when on, every request
// carries the request id as its client-side span, so the server records
// it as the operation's causal parent (an *obs.Collector on the server
// then ties its whole replica-level tree back to this client call). Off
// by default; untraced requests are byte-identical to the pre-tracing
// protocol on both codecs.
func (c *Client) SetTraced(on bool) { c.traced.Store(on) }

// ServerCaps reports the capability bits the server's binary hello
// announced (wireCapTracing = trace-context support); 0 on the JSON
// codec, whose trace field needs no negotiation.
func (c *Client) ServerCaps() byte { return c.caps }

// helloBinary sends the magic + version and consumes the server's hello
// frame carrying the negotiated op table.
func (c *Client) helloBinary() error {
	if _, err := c.conn.Write(append([]byte(wireMagic), wireVersion)); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return fmt.Errorf("serve: binary hello: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return &frameSizeError{n: int(n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return fmt.Errorf("serve: binary hello: %w", err)
	}
	if len(body) > 0 && body[0] == frameError {
		// The server refused the handshake (e.g. a version mismatch).
		resp, err := parseResponse(body)
		if err != nil {
			return err
		}
		return fmt.Errorf("serve: remote: %s", resp.err)
	}
	names, caps, err := parseHello(body)
	if err != nil {
		return err
	}
	c.caps = caps
	c.opCodes = make(map[string]uint64, len(names))
	for i, name := range names {
		c.opCodes[name] = uint64(i)
	}
	return nil
}

// fail records the terminal read error and unblocks every pending call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.readErr = err
	c.mu.Unlock()
	close(c.closed)
}

func (c *Client) deliver(id int64, cr clientResp) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- cr
	}
}

func (c *Client) readLoopJSON() {
	for {
		var wr wireResponse
		if err := readFrame(c.br, &wr); err != nil {
			c.fail(err)
			return
		}
		if wr.ID == errProtoID && wr.Err != "" {
			// Protocol-fatal error frame: the server is closing the
			// connection; surface its reason through every pending call.
			c.fail(fmt.Errorf("serve: remote: %s", wr.Err))
			return
		}
		cr := clientResp{resp: response{id: wr.ID, class: classFromString(wr.Class),
			shard: wr.Shard, invoke: wr.Invoke, respond: wr.Respond, err: wr.Err}}
		if wr.Err == "" {
			cr.resp.ret, cr.decodeErr = histio.DecodeValue(wr.Ret)
		}
		c.deliver(wr.ID, cr)
	}
}

func (c *Client) readLoopBinary() {
	var body []byte // reused: parseResponse copies what outlives the frame
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			c.fail(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			c.fail(&frameSizeError{n: int(n)})
			return
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(c.br, body); err != nil {
			c.fail(err)
			return
		}
		resp, err := parseResponse(body)
		if err != nil {
			c.fail(err)
			return
		}
		if resp.id == errProtoID && resp.err != "" {
			c.fail(fmt.Errorf("serve: remote: %s", resp.err))
			return
		}
		c.deliver(resp.id, clientResp{resp: resp})
	}
}

// Call executes one operation remotely and blocks until its response.
// The returned Response carries the server-side invoke/respond instants
// in virtual ticks, so latencies are comparable to the in-process path.
func (c *Client) Call(op string, arg any) (rtnet.Response, error) {
	return c.call("", op, arg)
}

// CallKey executes one operation against the named object of a sharded
// deployment. The response's Arg carries the keyed argument (see
// adt.KeyArg), so client-side logs group per shard and per object
// exactly like server-side traces.
func (c *Client) CallKey(key, op string, arg any) (rtnet.Response, error) {
	if key == "" {
		return rtnet.Response{}, fmt.Errorf("serve: CallKey needs a non-empty key")
	}
	return c.call(key, op, arg)
}

func (c *Client) call(key, op string, arg any) (rtnet.Response, error) {
	id := c.nextID.Add(1)
	// The request id doubles as the client-side span when tracing is on:
	// ids are positive and connection-unique, and 0 stays the wire's
	// "untraced" value.
	var trace int64
	if c.traced.Load() {
		trace = id
	}
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	c.pending[id] = ch
	c.mu.Unlock()
	var err error
	if c.codec == CodecBinary {
		err = c.writeBinaryRequest(id, key, op, arg, trace)
	} else {
		var raw json.RawMessage
		if raw, err = histio.EncodeValue(arg); err == nil {
			c.wmu.Lock()
			err = writeFrame(c.conn, wireRequest{ID: id, Key: key, Op: op, Arg: raw, Trace: trace})
			c.wmu.Unlock()
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return rtnet.Response{}, err
	}
	var cr clientResp
	select {
	case cr = <-ch:
	case <-c.closed:
		// The reader may have dispatched our response just before dying.
		select {
		case cr = <-ch:
		default:
			c.mu.Lock()
			readErr := c.readErr
			delete(c.pending, id)
			c.mu.Unlock()
			return rtnet.Response{}, fmt.Errorf("serve: connection lost: %w", readErr)
		}
	}
	if cr.decodeErr != nil {
		return rtnet.Response{}, cr.decodeErr
	}
	if cr.resp.err != "" {
		return rtnet.Response{}, fmt.Errorf("serve: remote: %s", cr.resp.err)
	}
	recArg := any(arg)
	if key != "" {
		if ka, kerr := keyedArg(key, arg); kerr == nil {
			recArg = ka
		}
	}
	return rtnet.Response{
		Op: op, Arg: recArg, Ret: cr.resp.ret,
		Class:   cr.resp.class,
		Invoke:  simtime.Time(cr.resp.invoke),
		Respond: simtime.Time(cr.resp.respond),
	}, nil
}

// writeBinaryRequest encodes and writes one request frame from a pooled
// buffer. Unknown operations fail locally: the negotiated table is the
// server's own op list, so a miss cannot succeed remotely either.
func (c *Client) writeBinaryRequest(id int64, key, op string, arg any, trace int64) error {
	opcode, ok := c.opCodes[op]
	if !ok {
		return fmt.Errorf("serve: remote type has no operation %q in the negotiated table", op)
	}
	bp := frameOut()
	defer frameIn(bp)
	b, err := appendRequest(*bp, id, opcode, key, arg, trace)
	if err != nil {
		return err
	}
	*bp = b
	if len(b)-4 > maxFrame {
		return &frameSizeError{n: len(b) - 4}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return finishFrame(c.conn, b)
}

// Close tears the connection down; in-flight Calls fail.
func (c *Client) Close() error { return c.conn.Close() }

func classFromString(s string) classify.Class {
	switch s {
	case classify.PureAccessor.String():
		return classify.PureAccessor
	case classify.PureMutator.String():
		return classify.PureMutator
	default:
		return classify.Mixed
	}
}
