package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/signguard/signguard/internal/asyncfl"
)

// newAsyncTestServer spins a real HTTP server over a fresh aggregator.
func newAsyncTestServer(t *testing.T, cfg asyncfl.Config) (*asyncfl.Aggregator, *httptest.Server) {
	t.Helper()
	agg, err := asyncfl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAsyncHandler(agg))
	t.Cleanup(srv.Close)
	return agg, srv
}

// quadCompute descends params toward target: grad = params - target.
func quadCompute(target float64) GradientFunc {
	return func(_ int, params []float64) ([]float64, error) {
		g := make([]float64, len(params))
		for i, p := range params {
			g[i] = p - target
		}
		return g, nil
	}
}

func TestAsyncProtocolEndToEnd(t *testing.T) {
	dim := 6
	init := make([]float64, dim)
	for i := range init {
		init[i] = 5
	}
	agg, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: init,
		K:             4,
		Alpha:         0.5,
		LR:            0.2,
		TargetSteps:   25,
		SessionTTL:    -1,
	})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunAsyncClient(context.Background(), AsyncClientConfig{
				Addr:    srv.URL,
				ID:      fmt.Sprintf("client-%d", i),
				Compute: quadCompute(0),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	select {
	case <-agg.Done():
	default:
		t.Fatal("aggregator not done after clients exited")
	}
	version, params, done := agg.Model()
	if !done || version != 25 {
		t.Fatalf("version %d done %v, want 25 steps", version, done)
	}
	for j, p := range params {
		if math.Abs(p) >= 5 {
			t.Fatalf("param %d = %v did not move toward 0", j, p)
		}
	}
	st := agg.Stats()
	if st.Arrivals < 100 {
		t.Fatalf("stats = %+v, want >= 100 accepted arrivals", st)
	}
}

func TestClientRequiresCompute(t *testing.T) {
	if _, err := RunAsyncClient(context.Background(), AsyncClientConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("accepted nil Compute")
	}
	if _, err := RunAsyncClient(context.Background(), AsyncClientConfig{
		Addr: "127.0.0.1:1", Compute: quadCompute(0), Cohort: 3, Slot: 3,
	}); err == nil || !strings.Contains(err.Error(), "slot") {
		t.Errorf("slot 3 of a cohort of 3: %v, want refused", err)
	}
}

func TestAsyncClientMaxUpdates(t *testing.T) {
	_, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: []float64{1},
		K:             1000, // never steps
		LR:            0.1,
		SessionTTL:    -1,
	})
	done := make(chan error, 1)
	go func() {
		_, err := RunAsyncClient(context.Background(), AsyncClientConfig{
			Addr:       srv.URL,
			ID:         "c",
			Compute:    quadCompute(0),
			MaxUpdates: 3,
		})
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("client: %v", err)
	}
}

func TestAsyncSubmitSignals(t *testing.T) {
	agg, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: []float64{0, 0},
		K:             100,
		QueueCap:      2,
		LR:            0.1,
		SessionTTL:    -1,
	})
	c := &AsyncClient{Base: srv.URL, ID: "c"}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, 0, 0, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Submit(ctx, 0, 0, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped || !res.Backpressure || !res.Accepted {
		t.Fatalf("overflow submit = %+v, want dropped+backpressure", res)
	}
	if st := agg.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v", st)
	}
	hb, err := c.Heartbeat(ctx)
	if err != nil || hb.Version != 0 || hb.Done {
		t.Fatalf("heartbeat = %+v, %v", hb, err)
	}
	resp, err := http.Get(srv.URL + AsyncPathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats asyncfl.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil || stats.Buffered != 2 {
		t.Fatalf("stats over HTTP = %+v, %v", stats, err)
	}
}

// postBody posts raw bytes to an async path and returns the HTTP status and
// the server's message.
func postBody(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(msg))
}

// submitBody is the wire form of req.
func submitBody(t testing.TB, req AsyncSubmitRequest) []byte {
	t.Helper()
	body, err := appendAsyncSubmit(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestAsyncBadRequests(t *testing.T) {
	_, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: []float64{0, 0},
		K:             10,
		LR:            0.1,
		SessionTTL:    -1,
	})
	valid := submitBody(t, AsyncSubmitRequest{Client: "c", Grad: []float64{1, 2}})
	if status, msg := postBody(t, srv.URL+AsyncPathUpdate, asyncBinaryType, valid); status != http.StatusOK {
		t.Fatalf("valid body: HTTP %d %s", status, msg)
	}
	short := submitBody(t, AsyncSubmitRequest{Client: "c", Grad: []float64{1}})
	if status, _ := postBody(t, srv.URL+AsyncPathUpdate, asyncBinaryType, short); status != http.StatusBadRequest {
		t.Errorf("dim mismatch: HTTP %d, want 400", status)
	}
	if status, _ := postBody(t, srv.URL+AsyncPathUpdate, asyncBinaryType, append(valid, " trailing"...)); status != http.StatusBadRequest {
		t.Errorf("trailing garbage: HTTP %d, want 400", status)
	}
	if status, _ := postBody(t, srv.URL+AsyncPathHeartbeat, "application/json", []byte(`{"Client":""}`)); status != http.StatusBadRequest {
		t.Errorf("empty heartbeat client: HTTP %d, want 400", status)
	}
	// A v1 client is told its path is gone, not that its body is malformed.
	if status, _ := postBody(t, srv.URL+"/asyncfl/v1/update", "application/json", []byte(`{"Client":"c","Grad":[1,2]}`)); status != http.StatusNotFound {
		t.Errorf("v1 path: HTTP %d, want 404", status)
	}
}

func TestAsyncClientURLNormalization(t *testing.T) {
	c := &AsyncClient{Base: "127.0.0.1:9000"}
	if got := c.url(AsyncPathModel); got != "http://127.0.0.1:9000"+AsyncPathModel {
		t.Fatalf("url = %q", got)
	}
	c.Base = "http://example.com/"
	if got := c.url(AsyncPathModel); got != "http://example.com"+AsyncPathModel {
		t.Fatalf("url = %q", got)
	}
}
