package loadtest

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/core"
)

// TestLoadHarnessCI is the scaled-down CI variant of the 100k run: a few
// thousand clients over real HTTP, finishing comfortably inside the
// 60-second budget while exercising the full metric surface.
func TestLoadHarnessCI(t *testing.T) {
	clients := 5000
	if testing.Short() {
		clients = 1500
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	rep, err := Run(Config{
		Clients:          clients,
		UpdatesPerClient: 2,
		Concurrency:      128,
		Dim:              32,
		K:                32,
		Alpha:            0.5,
		ByzFraction:      0.1,
		ChurnFraction:    0.05,
		Seed:             1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run logs progress only; the report is its return value, which
	// flserver prints once.
	for _, line := range logs {
		if strings.Contains(line, "throughput") {
			t.Errorf("Run logged the report:\n%s", line)
		}
	}
	if rep.Steps < 10 {
		t.Fatalf("report %+v: too few aggregation steps", rep)
	}
	if rep.RoundsPerSec <= 0 || rep.IngestP99 <= 0 || rep.IngestP50 > rep.IngestP99 {
		t.Fatalf("report %+v: broken latency/throughput metrics", rep)
	}
	if rep.Byzantine == 0 || rep.Churned == 0 {
		t.Fatalf("report %+v: fleet composition not exercised", rep)
	}
	if rep.MeanBufferOccupancy <= 0 {
		t.Fatalf("report %+v: buffer occupancy not tracked", rep)
	}
	// 10% reversed-and-scaled traffic shrinks the effective step but does
	// not flip its sign: even undefended, the model must still converge.
	if rep.ErrorReduction < 0.5 {
		t.Fatalf("report %+v: model failed to converge", rep)
	}
	if rep.Updates < int64(clients) {
		t.Fatalf("report %+v: fewer accepted updates than clients", rep)
	}
}

// TestLoadHarnessDefenseBeatsAttack runs the same heavily-attacked fleet
// undefended and behind SignGuard: the Byzantine majority-scale traffic
// must wreck the undefended model and be filtered by the defense.
func TestLoadHarnessDefenseBeatsAttack(t *testing.T) {
	base := Config{
		Clients:          800,
		UpdatesPerClient: 2,
		Concurrency:      64,
		Dim:              32,
		K:                16,
		Alpha:            0.5,
		ByzFraction:      0.3,
		Seed:             3,
	}
	undefended, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	defended := base
	defended.Rule = core.NewPlain(3)
	withRule, err := Run(defended)
	if err != nil {
		t.Fatal(err)
	}
	// 30% of clients submitting -5x gradients flips the mean's sign:
	// undefended the error must grow, defended it must shrink.
	if undefended.ErrorReduction > 0 {
		t.Fatalf("undefended run converged under a sign-flipping majority scale attack: %+v", undefended)
	}
	if withRule.ErrorReduction < 0.5 {
		t.Fatalf("SignGuard-defended run failed to converge: %+v", withRule)
	}
}

// TestLoadHarnessCodecReducesIngest runs the same defended, heavily-attacked
// fleet over the dense wire format and over topk: compression must cut the
// ingested byte volume while the defense still beats the attack.
func TestLoadHarnessCodecReducesIngest(t *testing.T) {
	base := Config{
		Clients:          800,
		UpdatesPerClient: 2,
		Concurrency:      64,
		Dim:              32,
		K:                16,
		Alpha:            0.5,
		ByzFraction:      0.3,
		Rule:             core.NewPlain(3),
		Seed:             3,
	}
	dense, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	compressed := base
	compressed.Codec = codec.TopKCodec{}
	topk, err := Run(compressed)
	if err != nil {
		t.Fatal(err)
	}
	if dense.IngestBytes <= 0 || topk.IngestBytes <= 0 {
		t.Fatalf("ingest bytes not tracked: dense %d, topk %d", dense.IngestBytes, topk.IngestBytes)
	}
	if topk.BytesPerUpdate >= dense.BytesPerUpdate/2 {
		t.Fatalf("topk shipped %.0f B/update, dense %.0f — compression not reflected in ingest accounting",
			topk.BytesPerUpdate, dense.BytesPerUpdate)
	}
	// Quality survives the lossy wire: the defense still filters the -5x
	// traffic and the model still converges.
	if topk.ErrorReduction < 0.5 {
		t.Fatalf("defended run under topk failed to converge: %+v", topk)
	}
}

// TestLoadHarnessHostileClients mixes non-finite attackers into a defended
// fleet: every hostile submission must be refused and counted, and the
// honest majority must still converge through the SignGuard defense.
func TestLoadHarnessHostileClients(t *testing.T) {
	rep, err := Run(Config{
		Clients:           600,
		UpdatesPerClient:  2,
		Concurrency:       64,
		Dim:               32,
		K:                 16,
		Alpha:             0.5,
		NonFiniteFraction: 0.2,
		Rule:              core.NewPlain(3),
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hostile == 0 {
		t.Fatalf("report %+v: no hostile clients in a 20%% hostile fleet", rep)
	}
	if rep.NonFiniteRejects < int64(rep.Hostile) {
		t.Fatalf("report %+v: %d hostile clients submitted but only %d non-finite rejections counted",
			rep, rep.Hostile, rep.NonFiniteRejects)
	}
	if rep.ErrorReduction < 0.5 {
		t.Fatalf("report %+v: honest majority failed to converge under non-finite attack", rep)
	}
}

// TestLoadHarnessChurnExpiry uses a TTL shorter than the run so churned
// clients' sessions actually expire and their queued updates are purged.
// The liveness clock advances one millisecond per reading (a lease renewal
// reads it twice), so a session silent for ~25 of the fleet's 800 submits
// expires however fast the machine serves them; on the wall clock the
// whole run can finish inside the TTL.
func TestLoadHarnessChurnExpiry(t *testing.T) {
	var ticks atomic.Int64
	rep, err := Run(Config{
		Clients:          400,
		UpdatesPerClient: 3,
		Concurrency:      8,
		Dim:              16,
		K:                5000, // above total arrivals: queued updates linger
		Alpha:            0.5,
		ChurnFraction:    0.5,
		SessionTTL:       50 * time.Millisecond,
		Seed:             5,
		now: func() time.Time {
			return time.Unix(0, ticks.Add(1)*int64(time.Millisecond))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired == 0 {
		t.Fatalf("report %+v: no sessions expired despite churn and a short TTL", rep)
	}
	if rep.Purged == 0 {
		t.Fatalf("report %+v: expiry purged no queued updates", rep)
	}
}

func TestLoadConfigValidation(t *testing.T) {
	bad := []Config{
		{Clients: 0},
		{Clients: 10, ByzFraction: 1.5},
		{Clients: 10, ChurnFraction: -0.1},
		{Clients: 10, UpdatesPerClient: -1},
		{Clients: 10, Concurrency: -2},
		{Clients: 10, NonFiniteFraction: 2},
		{Clients: 10, Dim: -1},
		{Clients: 10, Alpha: -0.5},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

// TestFillKeepsAlphaZero: Alpha 0 weighs every update alike (the plain
// buffered mean, which flserver -loadtest -alpha 0 asks for), so fill keeps
// it rather than reading it as unset.
func TestFillKeepsAlphaZero(t *testing.T) {
	cfg := Config{Clients: 10}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 0 {
		t.Errorf("fill set Alpha to %v, want the 0 it was given", cfg.Alpha)
	}
}

// TestLoadHarness100k is the headline run: 100k client sessions over real
// HTTP. It is too heavy for every `go test ./...` invocation, so it is
// opt-in: ASYNCFL_LOAD_CLIENTS=100000 go test -run 100k -v ./internal/asyncfl/loadtest
func TestLoadHarness100k(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("ASYNCFL_LOAD_CLIENTS"))
	if n < 1 {
		t.Skip("set ASYNCFL_LOAD_CLIENTS (e.g. 100000) to run the full-scale load test")
	}
	rep, err := Run(Config{
		Clients:          n,
		UpdatesPerClient: 2,
		Concurrency:      512,
		Dim:              64,
		K:                64,
		Alpha:            0.5,
		ByzFraction:      0.1,
		ChurnFraction:    0.05,
		SessionTTL:       10 * time.Second,
		Seed:             1,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.ErrorReduction < 0.5 {
		t.Fatalf("report %+v: model failed to converge at scale", rep)
	}
}

// BenchmarkAsyncLoad is the async load bench of the CI BENCH gate and
// `make profile`: one compact load run per iteration, reporting ingest
// and aggregation throughput.
func BenchmarkAsyncLoad(b *testing.B) {
	var updates, steps int64
	var secs float64
	for i := 0; i < b.N; i++ {
		rep, err := Run(Config{
			Clients:          400,
			UpdatesPerClient: 2,
			Concurrency:      64,
			Dim:              32,
			K:                16,
			Alpha:            0.5,
			ByzFraction:      0.1,
			Seed:             int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		updates += rep.Updates
		steps += rep.Steps
		secs += rep.Duration.Seconds()
	}
	b.ReportMetric(float64(updates)/secs, "updates/s")
	b.ReportMetric(float64(steps)/secs, "rounds/s")
}
