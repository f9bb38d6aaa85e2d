package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/transport"
)

// The served round is the simulated round: asyncfl's deterministic mode
// with K = cohort is the paper's synchronous setting (see the asyncfl
// package doc). TestServedRoundOverTheWire replays every simulated round
// into a served aggregator over the wire and requires the served model to
// equal the simulation's global vector bit for bit after every round.

// servedAttacks are the attacks the replays run under.
var servedAttacks = []string{"NoAttack", "Sign-flip", "LIE", "Min-Max"}

// servedRounds is how many rounds each replay compares.
const servedRounds = 12

// servedRules returns the defense catalog entries the serving path runs:
// every one asyncfl.New accepts. FLTrust, which needs a server reference
// gradient, is the one it refuses.
func servedRules(t *testing.T, p defense.Params) []string {
	t.Helper()
	var served, refused []string
	for _, name := range defense.Builtin().Names() {
		rule, err := defense.Builtin().Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := asyncfl.New(asyncfl.Config{InitialParams: []float64{0}, K: 1, LR: 1, Rule: rule}); err != nil {
			refused = append(refused, name)
			continue
		}
		served = append(served, name)
	}
	if !slices.Equal(refused, []string{"FLTrust"}) {
		t.Fatalf("asyncfl.New refuses %v, want [FLTrust]", refused)
	}
	return served
}

// recordingCodec is a codec that keeps every payload it encodes, in encode
// order. The codec stage runs inline for a cohort below twice codecGrain,
// so a round's payloads are recorded in arrival order.
type recordingCodec struct {
	codec.Codec
	payloads []codec.Encoded
}

func (r *recordingCodec) Encode(g []float64, rng *rand.Rand) (codec.Encoded, error) {
	enc, err := r.Codec.Encode(g, rng)
	r.payloads = append(r.payloads, enc)
	return enc, err
}

// roundServer submits one simulated round — its state, and the payloads the
// codec stage encoded for it in arrival order — to a served aggregator.
type roundServer func(st *RoundState, payloads []codec.Encoded)

// servedReplay runs servedRounds simulated rounds of rule under att through
// codec c. It builds a deterministic aggregator with K = cohort, the
// simulation's initial parameters and optimizer, and a freshly built rule,
// and hands it to serve for the roundServer that feeds it. After every
// round the served parameters must equal the simulation's global vector
// bit for bit.
func servedReplay(t *testing.T, ds *data.Dataset, rule, att string, c codec.Codec,
	serve func(agg *asyncfl.Aggregator) roundServer) {
	t.Helper()
	cfg := baseConfig(ds)
	cfg.Rounds, cfg.EvalEvery, cfg.EvalSamples = servedRounds, servedRounds, 60
	cfg.NumByz, cfg.Workers = 2, 1
	spec, err := attack.Builtin().Lookup(att)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Attack, err = spec.New(0, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	p := defense.Params{N: cfg.Clients, F: cfg.NumByz, Seed: 7}
	if cfg.Rule, err = defense.Builtin().Build(rule, p); err != nil {
		t.Fatal(err)
	}
	rec := &recordingCodec{Codec: c}
	cfg.Pipeline.Codec = rec
	var sim *Simulation
	var agg *asyncfl.Aggregator
	var submit roundServer
	compared := 0
	cfg.RoundHook = func(st *RoundState) {
		if len(st.Grads) != cfg.Clients {
			t.Fatalf("round %d submitted %d gradients, want the cohort of %d", st.Round, len(st.Grads), cfg.Clients)
		}
		payloads := rec.payloads
		rec.payloads = nil
		submit(st, payloads)
		// sim.global, not Model(): inside the hook the model's own
		// parameters are still the round's starting point.
		_, served, _ := agg.Model()
		for j, want := range sim.global {
			if math.Float64bits(served[j]) != math.Float64bits(want) {
				t.Fatalf("round %d: served parameter %d is %v, simulated %v", st.Round, j, served[j], want)
			}
		}
		compared++
	}
	if sim, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	servedRule, err := defense.Builtin().Build(rule, p)
	if err != nil {
		t.Fatal(err)
	}
	agg, err = asyncfl.New(asyncfl.Config{
		InitialParams: sim.global, K: cfg.Clients, Rule: servedRule,
		LR: cfg.LR, Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
		SessionTTL: -1, Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit = serve(agg)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if compared != servedRounds {
		t.Fatalf("compared %d rounds, want %d", compared, servedRounds)
	}
}

// slotClient names the client that owns arrival slot i of the cohort.
func slotClient(i int) string { return fmt.Sprintf("slot%d", i) }

// TestServedRoundOverTheWire ships each round's codec payloads — the very
// ones the simulation decoded — through NewAsyncCodecHandler, for every
// builtin codec. qsgd is included: its draws happen in the simulation's
// encode, and decoding draws nothing. An identity payload carries the
// round's RoundState.Grads entry bit for bit, which the identity rows
// check first: there the replay is the defense input's, and a differing
// model is the aggregator's, not the wire's.
func TestServedRoundOverTheWire(t *testing.T) {
	ds := tinyDataset(t)
	codecs := codec.Builtin()
	rules := servedRules(t, defense.Params{N: 10, F: 2, Seed: 7})
	for _, name := range codecs.Names() {
		c, err := codecs.Build(name, codec.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range rules {
			for _, att := range servedAttacks {
				t.Run(name+"/"+rule+"/"+att, func(t *testing.T) {
					servedReplay(t, ds, rule, att, c, func(agg *asyncfl.Aggregator) roundServer {
						h, err := transport.NewAsyncCodecHandler(agg, nil)
						if err != nil {
							t.Fatal(err)
						}
						srv := httptest.NewServer(h)
						t.Cleanup(srv.Close)
						return func(st *RoundState, payloads []codec.Encoded) {
							k := len(payloads)
							for i, enc := range payloads {
								if enc.Codec == codec.Identity && !bitsEqual(enc.Dense, st.Grads[i]) {
									t.Fatalf("round %d slot %d: the identity payload is not the round's defense input", st.Round, i)
								}
								cl := &transport.AsyncClient{Base: srv.URL, ID: slotClient(i)}
								res, err := cl.SubmitEncoded(context.Background(), st.Round, int64(st.Round*k+i), enc)
								if err != nil || !res.Accepted {
									t.Fatalf("round %d slot %d: res=%+v err=%v", st.Round, i, res, err)
								}
							}
						}
					})
				})
			}
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
