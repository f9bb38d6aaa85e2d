package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"github.com/signguard/signguard/internal/codec"
)

// The two float-carrying messages of the async protocol — the update
// submit and the model fetch — travel as one fixed little-endian binary
// body each (docs/ARCHITECTURE.md has the byte tables). Everything else on
// the wire is control plane and stays JSON.
//
// Parsing is the hostile-input surface: every count prefix is checked
// against the bytes that remain before anything is allocated, so a parse
// allocates at most len(body) bytes of slices whatever the prefixes claim.
// Nothing a parse returns aliases the body: its vectors land in the
// caller's asyncScratch, or in fresh slices when that scratch is empty.

const (
	// asyncBinaryType is the Content-Type of both binary bodies.
	asyncBinaryType = "application/octet-stream"
	// asyncSubmitTag / asyncModelTag open the bodies: three magic bytes and
	// the wire version of the /asyncfl/v2 paths.
	asyncSubmitTag = "SGU\x02"
	asyncModelTag  = "SGM\x02"
	// maxAsyncClientID bounds the client id of a submit.
	maxAsyncClientID = 256
	// asyncSubmitSlack is the room a submit body gets beyond its payload:
	// tag, client id, versions, codec name and count prefixes come to under
	// 400 bytes.
	asyncSubmitSlack = 4 << 10

	kindDense   = 0
	kindEncoded = 1
)

// maxAsyncSubmitBody is the largest legal submit body for a dim-coordinate
// model: the widest payload is topk keeping every coordinate, 4 B of index
// and 8 B of value each.
func maxAsyncSubmitBody(dim int) int64 { return 16*int64(dim) + asyncSubmitSlack }

// asyncScratch is one request's worth of memory the async handler owns and
// recycles: the body buffer and the backing of every vector a submit
// parses or decodes to. The zero value is the fresh form: every vector
// gets a slice of its own, and a dense gradient of any length parses.
type asyncScratch struct {
	body []byte
	// grad is the model-dimension vector (len = cap = dim): a dense
	// gradient parses into it, and an encoded one decodes into it.
	grad []float64
	// idx and val back a topk payload (cap dim each).
	idx []int32
	val []float64
}

func newAsyncScratch(dim int) *asyncScratch {
	return &asyncScratch{grad: make([]float64, dim), idx: make([]int32, 0, dim), val: make([]float64, 0, dim)}
}

// readAsyncSubmit takes one submit off the wire into s, answering the
// refusal itself when there is one. Refusals are ordered cheapest first,
// and nothing is allocated on the sender's say-so: the type and the length
// header are checked before a byte is read, the body lands in s's buffer,
// which never grows past a legal submit (limit), and the parse refuses any
// vector longer than s can hold. What it returns aliases s, so s must not
// be reused while the request is.
func readAsyncSubmit(w http.ResponseWriter, r *http.Request, limit int64, s *asyncScratch) (AsyncSubmitRequest, bool) {
	refuse := func(status int, format string, args ...any) (AsyncSubmitRequest, bool) {
		http.Error(w, fmt.Sprintf(format, args...), status)
		return AsyncSubmitRequest{}, false
	}
	if ct := r.Header.Get("Content-Type"); ct != asyncBinaryType {
		return refuse(http.StatusUnsupportedMediaType, "update body must be %s, not %q", asyncBinaryType, ct)
	}
	if r.ContentLength > limit {
		return refuse(http.StatusRequestEntityTooLarge, "request body is %d bytes, limit %d", r.ContentLength, limit)
	}
	var err error
	if s.body, err = readAll(s.body[:0], http.MaxBytesReader(w, r.Body, limit)); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return refuse(status, "bad request body: %v", err)
	}
	req, err := s.parseSubmit(s.body)
	if err != nil {
		return refuse(http.StatusBadRequest, "bad request body: %v", err)
	}
	return req, true
}

// readAll reads r to EOF, appending to b: io.ReadAll over capacity the
// caller owns, growing it only by the bytes that actually arrive.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// writeAsyncModel answers a model fetch with the binary body of m, built in
// s's body buffer.
func writeAsyncModel(w http.ResponseWriter, m *AsyncModelResponse, s *asyncScratch) {
	body, err := appendAsyncModel(s.body[:0], m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.body = body
	w.Header().Set("Content-Type", asyncBinaryType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a client that hung up is its own problem
}

// appendAsyncSubmit appends the binary submit body of req to b. Encoded,
// when set, is what is sent (kind 1); otherwise Grad (kind 0).
func appendAsyncSubmit(b []byte, req *AsyncSubmitRequest) ([]byte, error) {
	if n := len(req.Client); n == 0 || n > maxAsyncClientID {
		return b, fmt.Errorf("client id is %d bytes, want 1 to %d", n, maxAsyncClientID)
	}
	size := 8 * len(req.Grad)
	if req.Encoded != nil {
		size = len(req.Encoded.Codec) + req.Encoded.Bytes()
	}
	b = slices.Grow(b, 64+len(req.Client)+size) // one allocation: fields outside the payload come to under 64 B
	b = append(b, asyncSubmitTag...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(req.Client)))
	b = append(b, req.Client...)
	b = appendInt64(b, int64(req.Version))
	b = appendInt64(b, req.Seq)
	enc := req.Encoded
	if enc == nil {
		return appendFloat64s(append(b, kindDense), req.Grad), nil
	}
	if len(enc.Codec) > math.MaxUint8 {
		return b, fmt.Errorf("codec name is %d bytes, want at most %d", len(enc.Codec), math.MaxUint8)
	}
	b = append(b, kindEncoded, byte(len(enc.Codec)))
	b = append(b, enc.Codec...)
	b = appendInt64(b, int64(enc.Dim))
	b = appendFloat64s(b, enc.Dense)
	b = appendCount(b, len(enc.Idx))
	for _, i := range enc.Idx {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	b = appendFloat64s(b, enc.Val)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(enc.Scale))
	b = appendInt64(b, int64(enc.Levels))
	b = appendCount(b, len(enc.Q))
	for _, q := range enc.Q {
		b = append(b, byte(q))
	}
	b = appendCount(b, len(enc.Sign))
	return append(b, enc.Sign...), nil
}

// parseSubmit decodes a binary submit body into s (see asyncScratch). A
// scratch with a gradient vector refuses, before anything is sized by it, a
// dense gradient of any other length and a Dense, Idx or Val field longer
// than it can hold — fields no model of its dimension can use.
func (s *asyncScratch) parseSubmit(body []byte) (AsyncSubmitRequest, error) {
	r := wireReader{b: body}
	r.tag(asyncSubmitTag)
	var req AsyncSubmitRequest
	n := int(binary.LittleEndian.Uint16(r.fixed(2)))
	if r.err == nil && (n == 0 || n > maxAsyncClientID) {
		r.err = fmt.Errorf("client id is %d bytes, want 1 to %d", n, maxAsyncClientID)
	}
	req.Client = string(r.take(n))
	req.Version = int(r.int64())
	req.Seq = r.int64()
	switch kind := r.byte(); kind {
	case kindDense:
		req.Grad = r.float64s(s.grad)
		if r.err == nil && s.grad != nil && len(req.Grad) != len(s.grad) {
			r.err = fmt.Errorf("dense gradient has %d coordinates, want %d", len(req.Grad), len(s.grad))
		}
	case kindEncoded:
		enc := &codec.Encoded{}
		enc.Codec = string(r.take(int(r.byte())))
		enc.Dim = int(r.int64())
		enc.Dense = r.float64s(s.grad)
		if raw := r.counted(4, capLimit(s.idx)); len(raw) > 0 {
			enc.Idx = fit(s.idx, len(raw)/4)
			for i := range enc.Idx {
				enc.Idx[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
		enc.Val = r.float64s(s.val)
		enc.Scale = math.Float64frombits(uint64(r.int64()))
		enc.Levels = int(r.int64())
		if raw := r.counted(1, -1); len(raw) > 0 {
			enc.Q = make([]int8, len(raw))
			for i, q := range raw {
				enc.Q[i] = int8(q)
			}
		}
		if raw := r.counted(1, -1); len(raw) > 0 {
			enc.Sign = append([]byte(nil), raw...)
		}
		req.Encoded = enc
	default: // not reached after an error: a failed read yields kind 0
		r.err = fmt.Errorf("unknown payload kind %d", kind)
	}
	if err := r.finish(); err != nil {
		return AsyncSubmitRequest{}, err
	}
	return req, nil
}

// appendAsyncModel appends the binary model-fetch body of m to b.
func appendAsyncModel(b []byte, m *AsyncModelResponse) ([]byte, error) {
	if len(m.Codecs) > math.MaxUint8 {
		return b, fmt.Errorf("%d codec names, want at most %d", len(m.Codecs), math.MaxUint8)
	}
	b = append(b, asyncModelTag...)
	b = appendInt64(b, int64(m.Version))
	done := byte(0)
	if m.Done {
		done = 1
	}
	b = append(b, done, byte(len(m.Codecs)))
	for _, name := range m.Codecs {
		if len(name) > math.MaxUint8 {
			return b, fmt.Errorf("codec name is %d bytes, want at most %d", len(name), math.MaxUint8)
		}
		b = append(b, byte(len(name)))
		b = append(b, name...)
	}
	return appendFloat64s(b, m.Params), nil
}

// parseAsyncModel decodes a binary model-fetch body.
func parseAsyncModel(body []byte) (AsyncModelResponse, error) {
	r := wireReader{b: body}
	r.tag(asyncModelTag)
	var m AsyncModelResponse
	m.Version = int(r.int64())
	done := r.byte()
	if done > 1 { // not reached after an error: a failed read yields 0
		r.err = fmt.Errorf("done byte is %d, want 0 or 1", done)
	}
	m.Done = done == 1
	for n := int(r.byte()); n > 0 && r.err == nil; n-- {
		m.Codecs = append(m.Codecs, string(r.take(int(r.byte()))))
	}
	m.Params = r.float64s(nil)
	if err := r.finish(); err != nil {
		return AsyncModelResponse{}, err
	}
	return m, nil
}

func appendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendCount(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

func appendFloat64s(b []byte, v []float64) []byte {
	b = appendCount(b, len(v))
	off := len(b)
	b = append(b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
	}
	return b
}

var (
	errTruncated = errors.New("body ends inside a field")
	zeroField    [8]byte // read-only: what wireReader.fixed yields after an error
)

// wireReader consumes a body front to back. The first error sticks: later
// reads return zeros, so a parser reads every field unconditionally and
// checks once at the end.
type wireReader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil after recording errTruncated when
// the body is shorter.
func (r *wireReader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = errTruncated
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// fixed is take for a fixed-width field of at most 8 bytes: on error it
// yields zeros, so the caller can decode without checking.
func (r *wireReader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeroField[:n]
}

func (r *wireReader) tag(want string) {
	if got := r.take(len(want)); r.err == nil && string(got) != want {
		r.err = fmt.Errorf("body opens with %q, want %q", got, want)
	}
}

func (r *wireReader) byte() byte { return r.fixed(1)[0] }

func (r *wireReader) int64() int64 { return int64(binary.LittleEndian.Uint64(r.fixed(8))) }

// counted reads a uint32 count and returns that many size-byte elements,
// still aliasing the body. A count the remaining bytes cannot hold, or one
// above max when max >= 0, is an error before anything is sized by it.
func (r *wireReader) counted(size, max int) []byte {
	n := int64(binary.LittleEndian.Uint32(r.fixed(4)))
	switch {
	case r.err != nil:
	case n*int64(size) > int64(len(r.b)):
		r.err = fmt.Errorf("count prefix %d exceeds the %d bytes that remain", n, len(r.b))
	case max >= 0 && n > int64(max):
		r.err = fmt.Errorf("count prefix %d exceeds the model dimension %d", n, max)
	}
	return r.take(int(n) * size)
}

// float64s reads a counted float64 vector into dst, whose capacity then
// bounds the count, or into a fresh slice when dst is nil.
func (r *wireReader) float64s(dst []float64) []float64 {
	raw := r.counted(8, capLimit(dst))
	if len(raw) == 0 {
		return nil
	}
	out := fit(dst, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// capLimit is the count bound a scratch slice sets: its capacity, or none
// (-1) for the nil slice of the fresh form.
func capLimit[T any](dst []T) int {
	if dst == nil {
		return -1
	}
	return cap(dst)
}

// fit returns dst[:n] when dst can hold n values, a fresh slice otherwise.
func fit[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// finish reports the first error, or trailing bytes after the last field.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes after the last field", len(r.b))
	}
	return r.err
}
