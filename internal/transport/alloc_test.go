package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
)

// raceEnabled is set under -race (race_test.go): the race detector's
// instrumentation allocates, and sync.Pool drops items on purpose.
var raceEnabled bool

// serveDim is the model dimension of the repository benchmark's serving
// workload.
const serveDim = 1024

// updateBody is one submit body, named by its payload kind.
type updateBody struct {
	kind string
	body []byte
}

// updateBodies is an uncompressed (identity) and a topk submit body for a
// dim-coordinate model: the two payloads honest serving traffic carries.
func updateBodies(tb testing.TB, dim int) []updateBody {
	grad := tensor.RandNormal(tensor.NewRNG(3), dim, 0, 1)
	topk, err := codec.TopKCodec{}.Encode(grad, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return []updateBody{
		{"dense", submitBody(tb, AsyncSubmitRequest{Client: "c", Encoded: identity(grad)})},
		{"topk", submitBody(tb, AsyncSubmitRequest{Client: "c", Encoded: topk})},
	}
}

// discardResponse is a ResponseWriter that keeps only the status.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}

// updatePoster runs submit bodies through a handler in process, reusing
// one request and one response writer.
type updatePoster struct {
	h   http.Handler
	req *http.Request
	w   discardResponse
}

func newUpdatePoster(h http.Handler) *updatePoster {
	req := httptest.NewRequest(http.MethodPost, AsyncPathUpdate, nil)
	req.Header.Set("Content-Type", asyncBinaryType)
	return &updatePoster{h: h, req: req, w: discardResponse{header: http.Header{}}}
}

// post serves one submit and fails unless it was answered 200.
func (p *updatePoster) post(tb testing.TB, body []byte) {
	p.req.Body = io.NopCloser(bytes.NewReader(body))
	p.req.ContentLength = int64(len(body))
	p.w.status = 0
	p.h.ServeHTTP(&p.w, p.req)
	if p.w.status != http.StatusOK {
		tb.Fatalf("submit answered HTTP %d", p.w.status)
	}
}

// TestWarmUpdateAllocationBudget: through a warm handler, a POST /update
// allocates less than one model-sized vector, dense or topk — the body,
// the parsed or decoded gradient and the aggregator's copy all land in
// recycled memory.
func TestWarmUpdateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	agg, err := asyncfl.New(asyncfl.Config{
		InitialParams: make([]float64, serveDim), K: 1 << 30, LR: 0.1, SessionTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewAsyncCodecHandler(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := newUpdatePoster(h)
	for _, u := range updateBodies(t, serveDim) {
		for range 10 {
			p.post(t, u.body)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			p.post(t, u.body)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 8*serveDim {
			t.Errorf("%s: a warm POST %s allocates %d bytes, budget %d (one %d-coordinate vector)",
				u.kind, AsyncPathUpdate, per, 8*serveDim, serveDim)
		}
	}
}

// BenchmarkAsyncUpdate is the serving profile input (make profile writes
// profiles/serve.{cpu,mem}.pprof): dense and topk submits through the
// handler in process, over an aggregator of the repository benchmark's
// serving shape — d = 1024, SignGuard stepping every 32 arrivals from 64
// clients — so B/op is what serving one update costs, steps included.
func BenchmarkAsyncUpdate(b *testing.B) {
	for _, u := range updateBodies(b, serveDim) {
		b.Run(u.kind, func(b *testing.B) {
			rule, err := defense.Builtin().Build("SignGuard", defense.Params{N: 32, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			agg, err := asyncfl.New(asyncfl.Config{
				InitialParams: make([]float64, serveDim), K: 32, Alpha: 0.5, Rule: rule, LR: 0.05,
			})
			if err != nil {
				b.Fatal(err)
			}
			// One body per client id; every one computed against version 0,
			// so staleness grows as the steps land.
			bodies := make([][]byte, 64)
			for i := range bodies {
				req, err := (&asyncScratch{}).parseSubmit(u.body)
				if err != nil {
					b.Fatal(err)
				}
				req.Client = "c" + strconv.Itoa(i)
				bodies[i] = submitBody(b, req)
			}
			h, err := NewAsyncCodecHandler(agg, nil)
			if err != nil {
				b.Fatal(err)
			}
			p := newUpdatePoster(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				p.post(b, bodies[i%len(bodies)])
			}
		})
	}
}

// lyingReply answers every request 200 with body, under a Content-Length
// header of its own choosing.
type lyingReply struct {
	body   []byte
	length int64
}

func (l lyingReply) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: l.length,
		Body: io.NopCloser(bytes.NewReader(l.body)),
	}, nil
}

// TestClientReadIgnoresLyingContentLength: the client sizes its read by a
// reply's Content-Length, but reads to EOF whatever the header claims, and
// a claim beyond maxPresizedReply sizes nothing.
func TestClientReadIgnoresLyingContentLength(t *testing.T) {
	want := AsyncModelResponse{Version: 3, Params: tensor.RandNormal(tensor.NewRNG(1), serveDim, 0, 1), Codecs: []string{codec.TopK}}
	body, err := appendAsyncModel(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(body))
	for _, tc := range []struct {
		name   string
		length int64
	}{
		{"exact", n},
		{"unknown", -1},
		{"shorter than the body", n / 2},
		{"longer than the body", n + 1000},
		{"one past the pre-size cap", maxPresizedReply + 1},
		{"huge", 1 << 50},
	} {
		c := &AsyncClient{Base: "http://model.invalid", ID: "c", HTTP: &http.Client{Transport: lyingReply{body, tc.length}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := c.Model(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Errorf("%s Content-Length: %v", tc.name, err)
			continue
		}
		if got.Version != want.Version || !slices.Equal(got.Params, want.Params) {
			t.Errorf("%s Content-Length: read a different model", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; !raceEnabled && tc.length > maxPresizedReply && grew > 1<<20 {
			t.Errorf("%s Content-Length (%d): the fetch allocated %d bytes", tc.name, tc.length, grew)
		}
	}
}
