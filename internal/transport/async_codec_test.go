package transport

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/tensor"
)

// TestAsyncEncodedSubmit covers the versioned encoded-update payload: the
// server advertises its accepted codecs on fetch, decodes encoded submits
// through the registry, and accounts their wire size — and Submit is an
// identity-encoded submit, stepping the model and counting its bytes
// exactly as IdentityCodec's own payload does.
func TestAsyncEncodedSubmit(t *testing.T) {
	cfg := asyncfl.Config{
		InitialParams: []float64{4, -3, 2, -1, 0.5, 8},
		K:             1,
		LR:            0.5,
		SessionTTL:    -1,
	}
	ctx := context.Background()
	grad := []float64{1, -2, 0.25, -0.125, 3, -4}

	// Submit on one server, an IdentityCodec payload on another: the
	// decoded gradient is bit-identical, so the stepped models must match
	// exactly.
	aggRaw, srvRaw := newAsyncTestServer(t, cfg)
	cRaw := &AsyncClient{Base: srvRaw.URL, ID: "raw"}
	if res, err := cRaw.Submit(ctx, 0, 0, grad); err != nil || !res.Accepted || !res.Stepped {
		t.Fatalf("raw submit: res=%+v err=%v", res, err)
	}

	aggEnc, srvEnc := newAsyncTestServer(t, cfg)
	cEnc := &AsyncClient{Base: srvEnc.URL, ID: "enc"}
	model, err := cEnc.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := codec.Builtin().Names()
	if len(model.Codecs) != len(want) {
		t.Fatalf("server advertises %v, want %v", model.Codecs, want)
	}
	enc, err := codec.IdentityCodec{}.Encode(grad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cEnc.SubmitEncoded(ctx, 0, 0, enc); err != nil || !res.Accepted || !res.Stepped {
		t.Fatalf("encoded submit: res=%+v err=%v", res, err)
	}

	_, pRaw, _ := aggRaw.Model()
	_, pEnc, _ := aggEnc.Model()
	for i := range pRaw {
		if pRaw[i] != pEnc[i] {
			t.Fatalf("param %d: raw %v != encoded %v", i, pRaw[i], pEnc[i])
		}
	}
	if got := aggEnc.Stats().IngestBytes; got != int64(enc.Bytes()) {
		t.Errorf("ingest bytes %d, want %d", got, enc.Bytes())
	}
	// Submit ships the same identity payload, header included.
	if got := aggRaw.Stats().IngestBytes; got != int64(enc.Bytes()) {
		t.Errorf("Submit ingest bytes %d, want identity's %d", got, enc.Bytes())
	}

	// A lossy codec ships measurably less than dense.
	encTopk := codec.Encoded{Codec: codec.TopK, Dim: len(grad), Idx: []int32{4, 5}, Val: []float64{3, -4}}
	if encTopk.Bytes() >= enc.Bytes() {
		t.Fatalf("topk wire size %d not below dense %d", encTopk.Bytes(), enc.Bytes())
	}
	before := aggEnc.Stats().IngestBytes
	if res, err := cEnc.SubmitEncoded(ctx, 1, 0, encTopk); err != nil || !res.Accepted {
		t.Fatalf("topk submit: res=%+v err=%v", res, err)
	}
	if got := aggEnc.Stats().IngestBytes - before; got != int64(encTopk.Bytes()) {
		t.Errorf("topk ingest bytes %d, want %d", got, encTopk.Bytes())
	}
}

// TestAsyncCodecPolicy covers the accepted-list gate, uncompressed submits
// included, and the refusals of well-framed submits whose payload is wrong
// (hostile_test.go has the malformed frames).
func TestAsyncCodecPolicy(t *testing.T) {
	agg, err := asyncfl.New(asyncfl.Config{
		InitialParams: make([]float64, 4), K: 2, LR: 0.1, SessionTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAsyncCodecHandler(agg, []string{"gzip"}); err == nil ||
		!strings.Contains(err.Error(), "gzip") {
		t.Fatalf("unknown accepted codec not refused: %v", err)
	}
	h, err := NewAsyncCodecHandler(agg, []string{codec.Identity, codec.TopK})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	ctx := context.Background()
	c := &AsyncClient{Base: srv.URL, ID: "c"}

	model, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Codecs) != 2 || model.Codecs[0] != codec.Identity || model.Codecs[1] != codec.TopK {
		t.Fatalf("advertised %v, want [identity topk]", model.Codecs)
	}

	grad := []float64{1, 2, 3, 4}
	encSign, err := codec.SignSGDCodec{}.Encode(grad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitEncoded(ctx, 0, 0, encSign); err == nil ||
		!strings.Contains(err.Error(), "not accepted") {
		t.Fatalf("unadvertised codec not rejected: %v", err)
	}

	enc := codec.Encoded{Codec: codec.TopK, Dim: len(grad), Idx: []int32{2, 3}, Val: []float64{3, 4}}
	post := func(req AsyncSubmitRequest) error {
		_, err := c.submit(ctx, &req)
		return err
	}
	corrupt := enc
	corrupt.Idx = []int32{99, 1}
	if err := post(AsyncSubmitRequest{Client: "c", Encoded: corrupt}); err == nil ||
		!strings.Contains(err.Error(), "decoding") {
		t.Fatalf("corrupt payload not rejected: %v", err)
	}
	// A declared dimension that disagrees with the model is refused before
	// decode runs: Dim sizes the decode allocation, so a hostile payload
	// claiming a gigantic (or negative) dimension must never reach it.
	for _, dim := range []int{1 << 30, -1, 3} {
		huge := codec.Encoded{Codec: codec.TopK, Dim: dim}
		if err := post(AsyncSubmitRequest{Client: "c", Encoded: huge}); err == nil ||
			!strings.Contains(err.Error(), "declares dim") {
			t.Fatalf("dim %d payload not rejected pre-decode: %v", dim, err)
		}
	}
	// The valid forms still land, an uncompressed submit among them:
	// identity is accepted.
	if res, err := c.SubmitEncoded(ctx, 0, 0, enc); err != nil || !res.Accepted {
		t.Fatalf("valid topk submit failed: res=%+v err=%v", res, err)
	}
	if res, err := c.Submit(ctx, 0, 0, grad); err != nil || !res.Accepted {
		t.Fatalf("dense submit to an identity-accepting server failed: res=%+v err=%v", res, err)
	}

	// A topk-only server refuses an uncompressed submit as the identity
	// traffic it is, and the refusal still decides its lock-step position:
	// the topk submit at the next position closes the block.
	lockstep, err := asyncfl.New(asyncfl.Config{
		InitialParams: make([]float64, 4), K: 2, LR: 0.1, SessionTTL: -1, Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err = NewAsyncCodecHandler(lockstep, []string{codec.TopK})
	if err != nil {
		t.Fatal(err)
	}
	topkOnly := httptest.NewServer(h)
	defer topkOnly.Close()
	// A client with no Codec sends identity payloads, so it fails on the
	// list its first fetch advertises, before it submits anything.
	if _, err := RunAsyncClient(ctx, AsyncClientConfig{Addr: topkOnly.URL, ID: "plain", Compute: quadCompute(0)}); err == nil ||
		!strings.Contains(err.Error(), `does not accept codec "identity"`) {
		t.Fatalf("codec-less client against a topk-only server: %v, want a fail-fast naming identity", err)
	}
	if st := lockstep.Stats(); st.Arrivals != 0 || st.Rejects != 0 {
		t.Fatalf("the codec-less client reached the aggregator: %+v", st)
	}
	dense := &AsyncClient{Base: topkOnly.URL, ID: "dense"}
	if _, err := dense.Submit(ctx, 0, 0, grad); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), `codec "identity" not accepted`) {
		t.Fatalf("dense submit to a topk-only server: %v, want HTTP 400 naming identity", err)
	}
	sparse := &AsyncClient{Base: topkOnly.URL, ID: "sparse"}
	if res, err := sparse.SubmitEncoded(ctx, 0, 1, enc); err != nil || !res.Accepted || !res.Stepped {
		t.Fatalf("topk submit after the refused dense one: res=%+v err=%v, want Accepted and the block stepped", res, err)
	}
	if st := lockstep.Stats(); st.Arrivals != 1 || st.Steps != 1 {
		t.Errorf("stats = %+v, want one arrival and one step", st)
	}
}

// TestRunAsyncClientCodec covers the client-loop codec path: encoded
// submissions drive training to Done, and a client whose codec the server
// does not advertise fails fast on its first submit.
func TestRunAsyncClientCodec(t *testing.T) {
	init := make([]float64, 8)
	for i := range init {
		init[i] = 3
	}
	agg, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: init,
		K:             2,
		LR:            0.2,
		TargetSteps:   10,
		SessionTTL:    -1,
	})
	_, err := RunAsyncClient(context.Background(), AsyncClientConfig{
		Addr:    srv.URL,
		ID:      "qsgd-client",
		Compute: quadCompute(0),
		Codec:   codec.QSGDCodec{},
		Rng:     tensor.NewRNG(1),
	})
	if err != nil {
		t.Fatalf("codec client: %v", err)
	}
	st := agg.Stats()
	if st.Steps != 10 || !st.Done {
		t.Fatalf("training did not finish: %+v", st)
	}
	dense := int64(8 * len(init) * int(st.Arrivals))
	if st.IngestBytes <= 0 || st.IngestBytes >= dense {
		t.Errorf("qsgd ingest bytes %d not below dense %d", st.IngestBytes, dense)
	}

	// Identity-only server: a topk client must fail before submitting.
	aggNarrow, err := asyncfl.New(asyncfl.Config{
		InitialParams: init, K: 2, LR: 0.2, SessionTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewAsyncCodecHandler(aggNarrow, []string{codec.Identity})
	if err != nil {
		t.Fatal(err)
	}
	narrow := httptest.NewServer(h)
	defer narrow.Close()
	_, err = RunAsyncClient(context.Background(), AsyncClientConfig{
		Addr:    narrow.URL,
		ID:      "topk-client",
		Compute: quadCompute(0),
		Codec:   codec.TopKCodec{},
	})
	if err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("mismatched codec did not fail fast: %v", err)
	}
	if st := aggNarrow.Stats(); st.Arrivals != 0 {
		t.Errorf("fail-fast client still landed %d updates", st.Arrivals)
	}
}
