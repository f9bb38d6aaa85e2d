// Package asyncfl is the server-side aggregation core: the one place a
// gradient buffer is screened, defended, merged and applied. It is a
// FedBuff-style buffered aggregator that accepts gradient updates
// continuously, tags each with the model version it was computed against,
// buffers them in bounded per-client queues (drop-oldest, with a
// backpressure signal to the submitter), and performs an aggregation step
// every K accepted arrivals. Each step first lets a registered defense
// (internal/defense — SignGuard, Krum, DnC, ...) filter the drained buffer,
// then merges the survivors under staleness-discounted weights
// w(s) = 1/(1+s)^alpha and applies a server-side SGD step, bumping the
// model version.
//
// Both wires in internal/transport are adapters over this core. The HTTP
// protocol (/asyncfl/v2) is the general case: the defense sees a
// staleness-skewed buffer rather than a synchronized cohort, and the
// staleness discount plays the role the server's trust weighting plays in
// server-learning defenses. The paper's synchronous setting is the
// degenerate case the gob round server drives: K = cohort, every update
// fresh, and a Flush barrier at the end of a round in which the ingest
// screen withheld part of the cohort. A buffer with no stale update has
// nothing to discount, so the step applies the defense's own aggregate
// (SignGuard's median-norm clipping, Bulyan's trimmed mean) unchanged.
//
// Client liveness is a TTL lease renewed by heartbeats: any message renews
// a session's lease, silent clients expire on the next sweep and their
// queued updates are purged — churn never wedges the buffer.
//
// Determinism: every mutation happens under one lock in arrival order, and
// the buffered merge accumulates in arrival order, so a fixed arrival
// schedule yields byte-identical aggregates. Config.Deterministic makes
// that schedule explicit: updates carry a global sequence number and the
// aggregator applies them in sequence order no matter how concurrent
// submitters interleave — the property the interleaving tests assert
// without a single sleep.
package asyncfl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/sanitize"
	"github.com/signguard/signguard/internal/tensor"
)

// Defaults for Config fields left zero.
const (
	// DefaultQueueCap bounds each client's update queue.
	DefaultQueueCap = 4
	// DefaultSessionTTL is the liveness lease lifetime.
	DefaultSessionTTL = time.Minute
	// DefaultReorderWindow bounds how far ahead of the next schedule
	// position a deterministic-mode update may park.
	DefaultReorderWindow = 1 << 14
)

// Config describes a buffered asynchronous aggregator.
type Config struct {
	// InitialParams is the starting global parameter vector (required).
	InitialParams []float64
	// K triggers an aggregation step every K accepted arrivals (required,
	// >= 1). The step drains every queued update — usually exactly K, fewer
	// when drop-oldest evicted some, at least one always, so a single
	// hyperactive client bounded by QueueCap cannot stall aggregation.
	K int
	// Alpha is the staleness-discount exponent of w(s) = 1/(1+s)^alpha.
	// 0 degenerates to the plain buffered mean; must not be negative.
	Alpha float64
	// Rule, when non-nil, filters each drained buffer before the
	// staleness-weighted merge: rules that select gradients (SignGuard,
	// Krum, DnC, ...) have only their survivors merged; coordinate-wise
	// rules without a selection (Mean, Median, ...) replace the merge with
	// their own aggregate, since per-client staleness cannot be attributed
	// through them — and so does any rule on a buffer with no stale update,
	// where every merge weight is exactly 1. nil merges the whole buffer.
	Rule aggregate.Rule
	// LR / Momentum / WeightDecay configure the server-side SGD step.
	LR          float64
	Momentum    float64
	WeightDecay float64
	// QueueCap bounds each client's queue (0 = DefaultQueueCap). A full
	// queue drops its oldest update and reports backpressure to the
	// submitter.
	QueueCap int
	// MaxStaleness, when > 0, rejects updates staler than this many
	// versions outright instead of merging them at a tiny weight.
	MaxStaleness int
	// NonFinite is the ingest screen's disposition for updates carrying
	// NaN or ±Inf coordinates (see internal/sanitize). The zero value
	// defaults to sanitize.Reject: untrusted ingest never lets a
	// non-finite value reach the buffer unscreened.
	NonFinite sanitize.Policy
	// TargetSteps, when > 0, marks the aggregator Done after that many
	// aggregation steps; further submits are refused. 0 runs forever.
	TargetSteps int64
	// SessionTTL is the liveness lease lifetime (0 = DefaultSessionTTL;
	// negative disables expiry).
	SessionTTL time.Duration
	// Deterministic makes updates carry an explicit global sequence number
	// (Update.Seq, 0-based, dense): the aggregator holds out-of-order
	// arrivals and applies everything in sequence order, so any concurrent
	// interleaving of a fixed schedule produces byte-identical aggregates.
	Deterministic bool
	// ReorderWindow bounds the deterministic reorder buffer: an update
	// whose Seq is ReorderWindow or more positions ahead of the next
	// schedule position is refused instead of parked, so a client cannot
	// grow the buffer without limit by skipping ahead (0 =
	// DefaultReorderWindow; ignored outside deterministic mode).
	ReorderWindow int
	// Now supplies the liveness clock (nil = time.Now); injectable so
	// churn tests expire sessions by advancing a fake clock.
	Now func() time.Time
	// Logf, when non-nil, receives step and churn events.
	Logf func(format string, args ...any)
}

func (c *Config) validate() error {
	switch {
	case len(c.InitialParams) == 0:
		return errors.New("asyncfl: Config.InitialParams is required")
	case c.K < 1:
		return fmt.Errorf("asyncfl: buffer size K = %d invalid (need >= 1)", c.K)
	case c.Alpha < 0:
		return fmt.Errorf("asyncfl: staleness exponent alpha = %v invalid (need >= 0)", c.Alpha)
	case c.LR <= 0:
		return fmt.Errorf("asyncfl: learning rate %v invalid", c.LR)
	case c.QueueCap < 0:
		return fmt.Errorf("asyncfl: queue capacity %d invalid", c.QueueCap)
	case c.MaxStaleness < 0:
		return fmt.Errorf("asyncfl: max staleness %d invalid", c.MaxStaleness)
	case c.ReorderWindow < 0:
		return fmt.Errorf("asyncfl: reorder window %d invalid", c.ReorderWindow)
	case c.NonFinite != 0 && !c.NonFinite.Valid():
		return fmt.Errorf("asyncfl: unknown non-finite policy %d", int(c.NonFinite))
	}
	return nil
}

// Update is one client contribution.
type Update struct {
	// Client identifies the submitting session.
	Client string
	// Version is the model version the gradient was computed against.
	Version int
	// Seq is the update's position in the global arrival schedule
	// (deterministic mode only, 0-based and dense; ignored otherwise).
	Seq int64
	// Grad is the flat gradient vector. Submit never retains it: the
	// vector is copied into an update slot the Aggregator owns before it is
	// screened, buffered or parked, so the caller may overwrite or reuse the
	// slice as soon as Submit returns.
	Grad []float64
	// WireBytes is the size this update occupied on the wire (the encoded
	// form under the client's codec). 0 means unreported: the ingest
	// accounting falls back to the dense float64 size of Grad.
	WireBytes int
}

// SubmitResult tells the submitter what happened to its update.
type SubmitResult struct {
	// Accepted reports the update entered the buffer.
	Accepted bool
	// Held reports a deterministic-mode update parked until its
	// predecessors in the schedule arrive (it will be applied then).
	Held bool
	// TooStale reports a rejection by Config.MaxStaleness.
	TooStale bool
	// Dropped reports this client's oldest queued update was evicted to
	// make room — the drop-oldest half of backpressure.
	Dropped bool
	// Backpressure reports the client's queue is at capacity after this
	// submit: the client should fetch a fresh model before submitting
	// again rather than pile up doomed updates.
	Backpressure bool
	// Stepped reports this arrival triggered an aggregation step.
	Stepped bool
	// NonFinite reports the update carried NaN or ±Inf coordinates. Under
	// the Clamp policy it was repaired and accepted; under Reject or
	// Quarantine it was withheld from the buffer.
	NonFinite bool
	// Staleness is the update's age in model versions at submit time.
	Staleness int
	// Version is the current model version after processing — when it
	// exceeds the submitted version, a fetch is due.
	Version int
	// Done reports training reached Config.TargetSteps.
	Done bool
}

// StepSummary records one aggregation step.
type StepSummary struct {
	// Step is the 1-based step index; Version the model version it
	// produced.
	Step    int64
	Version int
	// Buffer is the number of updates drained; Kept how many survived the
	// defense filter.
	Buffer int
	Kept   int
	// MeanStaleness / MaxStaleness describe the drained buffer's age.
	MeanStaleness float64
	MaxStaleness  int
}

// Stats snapshots the aggregator's counters.
type Stats struct {
	Version    int
	Steps      int64
	Arrivals   int64 // accepted updates
	Buffered   int   // updates currently queued
	Drops      int64 // evictions by drop-oldest
	Rejects    int64 // refused updates (stale, future-versioned, done)
	RuleErrors int64 // steps skipped because the defense errored
	// Non-finite ingest accounting: how many updates the screen rejected,
	// repaired in place, or quarantined (see Config.NonFinite).
	NonFiniteRejects     int64
	NonFiniteClamps      int64
	NonFiniteQuarantines int64
	EmptySelects         int64 // steps skipped because the defense kept nothing
	AliveSessions        int
	Expired              int64 // sessions ever expired
	PurgedUpdates        int64 // queued updates discarded by session expiry
	// MeanOccupancy is the buffer population averaged over accepted
	// arrivals — how full the buffer runs in steady state.
	MeanOccupancy float64
	// IngestBytes is the total wire size of accepted updates (each
	// update's reported WireBytes, dense size when unreported).
	IngestBytes int64
	Done        bool
}

// entry is one buffered update.
type entry struct {
	client  string
	version int
	seq     int64 // server-assigned arrival number: the drain order
	grad    []float64
}

// Aggregator is the buffered asynchronous serving core. Create one with
// New; it is safe for concurrent use.
type Aggregator struct {
	cfg      Config
	queueCap int
	sessions *SessionTable

	mu      sync.Mutex
	params  []float64
	opt     *nn.SGD
	version int
	done    bool
	doneCh  chan struct{}

	queues   map[string][]entry
	buffered int
	arrival  int64 // next server-assigned arrival number
	sinceK   int   // accepted arrivals since the last step
	seqNext  int64 // deterministic mode: next schedule position to apply
	// reorder parks out-of-order deterministic-mode updates by schedule
	// position; a nil entry is a tombstone for a position abandoned by
	// session expiry, which the drain loop skips instead of wedging on.
	reorder    map[int64]*Update
	reorderWin int64

	// spare is the free list of update slots: d-vectors that held an update
	// whose life has ended (refused by the screen, evicted, purged or
	// drained by a step) and wait for the next one. A slot returns only
	// when its update leaves the buffer or the reorder map, so the list
	// never holds more than the peak of buffered plus parked updates and
	// needs no cap.
	spare [][]float64
	// Per-step scratch, resliced by every step.
	buf        []entry
	grads      [][]float64
	staleness  []int
	mergeGrads [][]float64
	mergeStale []int

	steps                int64
	ingestBytes          int64
	drops                int64
	rejects              int64
	ruleErrors           int64
	emptySelects         int64
	nonFiniteRejects     int64
	nonFiniteClamps      int64
	nonFiniteQuarantines int64
	purged               int64
	occSum               int64
	occN                 int64
	history              []StepSummary
}

// New builds an aggregator from cfg.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.NonFinite == 0 {
		cfg.NonFinite = sanitize.Reject
	}
	if cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	ttl := cfg.SessionTTL
	if ttl == 0 {
		ttl = DefaultSessionTTL
	} else if ttl < 0 {
		ttl = 0 // SessionTable: 0 disables expiry
	}
	params := make([]float64, len(cfg.InitialParams))
	copy(params, cfg.InitialParams)
	return &Aggregator{
		cfg:        cfg,
		queueCap:   cfg.QueueCap,
		sessions:   NewSessionTable(ttl, cfg.Now),
		params:     params,
		opt:        nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay),
		doneCh:     make(chan struct{}),
		queues:     map[string][]entry{},
		reorder:    map[int64]*Update{},
		reorderWin: int64(cfg.ReorderWindow),
	}, nil
}

func (a *Aggregator) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Submit offers one update to the buffer. It renews the client's liveness
// lease, purges queues of any session that expired meanwhile, enqueues the
// update (evicting the client's oldest when its queue is full), and — every
// K accepted arrivals — runs an aggregation step inline before returning.
// The returned SubmitResult carries the backpressure signals the transport
// relays to the client. Submitting to a Done aggregator is refused.
//
// Submit copies u.Grad into an update slot of its own before anything else
// looks at it and never keeps the caller's slice: a transport may hand it
// request scratch and reuse that scratch once Submit returns.
func (a *Aggregator) Submit(u Update) (SubmitResult, error) {
	if len(u.Grad) != len(a.cfg.InitialParams) {
		return SubmitResult{}, fmt.Errorf("asyncfl: client %q sent %d-dim gradient, want %d",
			u.Client, len(u.Grad), len(a.cfg.InitialParams))
	}
	expired, _ := a.sessions.Touch(u.Client)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.purgeLocked(expired)

	if !a.cfg.Deterministic {
		u.Grad = a.slotLocked(u.Grad)
		return a.applyLocked(u), nil
	}

	// Deterministic mode: park the update and drain every consecutive
	// schedule position that is now available, returning the caller's own
	// outcome once its turn comes.
	if u.Seq < a.seqNext {
		return SubmitResult{}, fmt.Errorf("asyncfl: schedule position %d already applied (next is %d)", u.Seq, a.seqNext)
	}
	if u.Seq >= a.seqNext+a.reorderWin {
		return SubmitResult{}, fmt.Errorf("asyncfl: schedule position %d too far ahead of %d (reorder window %d)",
			u.Seq, a.seqNext, a.reorderWin)
	}
	if _, dup := a.reorder[u.Seq]; dup {
		return SubmitResult{}, fmt.Errorf("asyncfl: duplicate schedule position %d", u.Seq)
	}
	// Park a copy in a slot, which applyLocked takes over when it drains.
	// (A parked variable of its own, not &u: u escaping would cost every
	// Submit a heap copy of it.)
	parked := u
	parked.Grad = a.slotLocked(u.Grad)
	a.reorder[u.Seq] = &parked
	res := SubmitResult{Held: true, Version: a.version, Done: a.done}
	for {
		next, ok := a.reorder[a.seqNext]
		if !ok {
			break
		}
		delete(a.reorder, a.seqNext)
		a.seqNext++
		if next == nil {
			continue // position abandoned by session expiry
		}
		r := a.applyLocked(*next)
		if next.Seq == u.Seq {
			res = r
		}
	}
	return res, nil
}

// NoteNonFiniteReject accounts a hostile update refused before it ever
// reached Submit: the transport calls it when a codec decode refuses a
// payload that carries — or amplifies to — NaN/±Inf, so wire-level
// non-finite traffic shows up in the same Stats counters as the buffer
// screen's rejections. Like any other client message it renews the
// session's liveness lease.
func (a *Aggregator) NoteNonFiniteReject(client string) {
	expired, _ := a.sessions.Touch(client)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.purgeLocked(expired)
	a.nonFiniteRejects++
	a.rejects++
}

// Heartbeat renews a session lease without contributing an update (an idle
// client staying live) and purges whatever expired meanwhile. It returns
// the current model version and done state.
func (a *Aggregator) Heartbeat(client string) (version int, done bool) {
	expired, _ := a.sessions.Touch(client)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.purgeLocked(expired)
	return a.version, a.done
}

// purgeLocked discards the queued updates of expired sessions. Callers
// hold a.mu.
func (a *Aggregator) purgeLocked(expired []string) {
	for _, id := range expired {
		if q := a.queues[id]; len(q) > 0 {
			for _, e := range q {
				a.spare = append(a.spare, e.grad)
			}
			a.buffered -= len(q)
			a.purged += int64(len(q))
			a.logf("asyncfl: session %s expired, %d queued updates purged", id, len(q))
			delete(a.queues, id)
		}
	}
	if len(expired) == 0 || len(a.reorder) == 0 {
		return
	}
	// Deterministic mode: tombstone (don't delete) the parked updates of
	// expired sessions so their schedule positions still drain — removing
	// the key outright would wedge every later position behind the hole.
	gone := make(map[string]bool, len(expired))
	for _, id := range expired {
		gone[id] = true
	}
	for seq, u := range a.reorder {
		if u != nil && gone[u.Client] {
			a.spare = append(a.spare, u.Grad)
			a.reorder[seq] = nil
			a.purged++
			a.logf("asyncfl: session %s expired, parked schedule position %d abandoned", u.Client, seq)
		}
	}
}

// slotLocked returns an update slot holding a copy of g: the last slot put
// on the free list when there is one, a fresh vector otherwise. Callers
// hold a.mu.
func (a *Aggregator) slotLocked(g []float64) []float64 {
	var s []float64
	if n := len(a.spare); n > 0 {
		s, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		s = make([]float64, len(g))
	}
	copy(s, g)
	return s
}

// applyLocked runs the accept/enqueue/step path for one update whose Grad
// is an update slot (slotLocked): when it returns, the slot is buffered or
// back on the free list. Callers hold a.mu.
func (a *Aggregator) applyLocked(u Update) SubmitResult {
	res, ok := a.admitLocked(u)
	if !ok {
		a.spare = append(a.spare, u.Grad)
		return res
	}
	q := a.queues[u.Client]
	if len(q) >= a.queueCap {
		// Drop-oldest: the evicted update already counted as an arrival,
		// so the step cadence is unaffected; the submitter learns via
		// Dropped that it is outrunning the aggregator.
		a.spare = append(a.spare, q[0].grad)
		copy(q, q[1:])
		q = q[:len(q)-1]
		a.buffered--
		a.drops++
		res.Dropped = true
	}
	q = append(q, entry{client: u.Client, version: u.Version, seq: a.arrival, grad: u.Grad})
	a.arrival++
	a.queues[u.Client] = q
	a.buffered++
	a.ingestBytes += int64(wireBytes(u))
	res.Accepted = true
	res.Backpressure = len(q) >= a.queueCap

	a.sinceK++
	a.occSum += int64(a.buffered)
	a.occN++
	if a.sinceK >= a.cfg.K {
		a.stepLocked()
		res.Stepped = true
		res.Version = a.version
		res.Done = a.done
	}
	return res
}

// admitLocked decides whether an update may enter the buffer: it refuses
// the done, the future-versioned and the too-stale, then screens the
// update's slot, so the Clamp repair never touches a caller's slice.
// Reject and Quarantine consume the arrival — in deterministic mode its
// schedule position has already drained — but nothing hostile enters the
// buffer. Callers hold a.mu.
func (a *Aggregator) admitLocked(u Update) (res SubmitResult, ok bool) {
	res = SubmitResult{Version: a.version, Done: a.done}
	if a.done {
		a.rejects++
		return res, false
	}
	s := a.version - u.Version
	res.Staleness = s
	if s < 0 {
		a.rejects++
		return res, false // gradient against a future model: refused
	}
	if a.cfg.MaxStaleness > 0 && s > a.cfg.MaxStaleness {
		a.rejects++
		res.TooStale = true
		return res, false
	}
	switch sanitize.Screen(u.Grad, a.cfg.NonFinite) {
	case sanitize.Rejected:
		a.nonFiniteRejects++
		a.rejects++
		res.NonFinite = true
		return res, false
	case sanitize.Quarantined:
		// Accepted for accounting (the operator sees who ships garbage via
		// the counter and ingest bytes) but withheld from aggregation.
		a.nonFiniteQuarantines++
		a.ingestBytes += int64(wireBytes(u))
		res.NonFinite = true
		return res, false
	case sanitize.Clamped:
		a.nonFiniteClamps++
		res.NonFinite = true
	}
	return res, true
}

// Flush runs an aggregation step over whatever is buffered now and restarts
// the K-cadence, reporting whether the model version advanced. It is the
// barrier a synchronous wire needs when the ingest screen withheld part of
// its cohort: K accepted arrivals would otherwise never be reached. An empty
// buffer and a Done aggregator are no-ops.
func (a *Aggregator) Flush() (stepped bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return false
	}
	before := a.version
	a.stepLocked()
	return a.version > before
}

// stepLocked drains the whole buffer in arrival order, filters it through
// the defense, merges the survivors under staleness weights, applies the
// server SGD step and restarts the K-cadence. Callers hold a.mu.
func (a *Aggregator) stepLocked() {
	a.sinceK = 0
	buf := a.buf[:0]
	for _, q := range a.queues {
		buf = append(buf, q...)
	}
	a.buf = buf
	// Arrival order, not map order: the merge accumulates sequentially, so
	// this sort is what makes the aggregate byte-determined by the
	// schedule.
	sortEntries(buf)
	for c := range a.queues {
		delete(a.queues, c)
	}
	a.buffered = 0
	if len(buf) == 0 {
		return
	}
	// Every drained slot goes back on the free list when the step ends, on
	// every path out of it: deferred, so it happens only after opt.Step has
	// consumed merged, which may alias one of the slots.
	defer a.releaseLocked(buf)

	grads, staleness := a.grads[:0], a.staleness[:0]
	sum, max := 0, 0
	for _, e := range buf {
		s := a.version - e.version
		grads = append(grads, e.grad)
		staleness = append(staleness, s)
		sum += s
		if s > max {
			max = s
		}
	}
	a.grads, a.staleness = grads, staleness

	kept := len(buf)
	mergeGrads, mergeStale := grads, staleness
	var merged []float64
	if a.cfg.Rule != nil {
		res, err := a.cfg.Rule.Aggregate(grads)
		if err != nil {
			// A failing defense must not default to an undefended mean:
			// discard the buffer and skip the step.
			a.ruleErrors++
			a.logf("asyncfl: defense %s failed on %d-update buffer: %v (step skipped)", a.cfg.Rule.Name(), len(buf), err)
			return
		}
		if res.Selected != nil {
			if len(res.Selected) == 0 {
				a.emptySelects++
				a.logf("asyncfl: defense %s kept nothing of %d-update buffer (step skipped)", a.cfg.Rule.Name(), len(buf))
				return
			}
			kept = len(res.Selected)
		}
		if res.Selected == nil || max == 0 {
			// The rule's aggregate is the merge: staleness cannot be
			// attributed per client through a coordinate-wise rule, and an
			// all-fresh buffer (every weight exactly 1) has none to attribute.
			merged = res.Gradient
		} else {
			mergeGrads, mergeStale = a.mergeGrads[:0], a.mergeStale[:0]
			for _, idx := range res.Selected {
				mergeGrads = append(mergeGrads, grads[idx])
				mergeStale = append(mergeStale, staleness[idx])
			}
			a.mergeGrads, a.mergeStale = mergeGrads, mergeStale
		}
	}
	if merged == nil {
		var err error
		merged, err = WeightedMerge(mergeGrads, mergeStale, a.cfg.Alpha)
		if err != nil {
			a.ruleErrors++
			a.logf("asyncfl: merge failed: %v (step skipped)", err)
			return
		}
	}
	if !tensor.AllFinite(merged) {
		// Defense-in-depth behind the ingest screen: a clamped-but-huge
		// buffer can still overflow the staleness-weighted merge, and a
		// caller-supplied rule is not necessarily output-guarded. A
		// non-finite merge must never reach the optimizer.
		a.ruleErrors++
		a.logf("asyncfl: non-finite merged aggregate from %d-update buffer (step skipped)", len(buf))
		return
	}
	if err := a.opt.Step(a.params, merged); err != nil {
		a.ruleErrors++
		a.logf("asyncfl: optimizer step failed: %v", err)
		return
	}
	a.steps++
	a.version++
	a.history = append(a.history, StepSummary{
		Step:          a.steps,
		Version:       a.version,
		Buffer:        len(buf),
		Kept:          kept,
		MeanStaleness: float64(sum) / float64(len(buf)),
		MaxStaleness:  max,
	})
	if a.cfg.TargetSteps > 0 && a.steps >= a.cfg.TargetSteps && !a.done {
		a.done = true
		close(a.doneCh)
		a.logf("asyncfl: target of %d steps reached at version %d", a.cfg.TargetSteps, a.version)
	}
}

// releaseLocked puts the slots of drained entries back on the free list and
// drops the entries' references. Callers hold a.mu.
func (a *Aggregator) releaseLocked(buf []entry) {
	for _, e := range buf {
		a.spare = append(a.spare, e.grad)
	}
	clear(buf)
}

// wireBytes is the ingest-accounting size of one update: its reported
// encoded size, falling back to the dense float64 size when unreported.
func wireBytes(u Update) int {
	if u.WireBytes != 0 {
		return u.WireBytes
	}
	return 8 * len(u.Grad)
}

// sortEntries orders buffer entries by arrival number (insertion sort: the
// per-client queues are already sorted runs and buffers are small).
func sortEntries(buf []entry) {
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].seq < buf[j-1].seq; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}

// Dim returns the model dimension every submitted gradient must match.
// The dimension is fixed at construction, so no lock is needed.
func (a *Aggregator) Dim() int { return len(a.cfg.InitialParams) }

// Model returns the current version and a copy of the global parameters,
// plus whether training is done.
func (a *Aggregator) Model() (version int, params []float64, done bool) {
	return a.ModelInto(nil)
}

// ModelInto is Model copying the parameters into dst[:Dim()] when dst can
// hold them, and into a fresh slice otherwise.
func (a *Aggregator) ModelInto(dst []float64) (version int, params []float64, done bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cap(dst) < len(a.params) {
		dst = make([]float64, len(a.params))
	}
	params = dst[:len(a.params)]
	copy(params, a.params)
	return a.version, params, a.done
}

// Done returns a channel closed when TargetSteps aggregation steps have
// completed.
func (a *Aggregator) Done() <-chan struct{} { return a.doneCh }

// History returns the per-step summaries recorded so far.
func (a *Aggregator) History() []StepSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]StepSummary(nil), a.history...)
}

// Stats snapshots the aggregator's counters.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Version:              a.version,
		Steps:                a.steps,
		Arrivals:             a.arrival,
		Buffered:             a.buffered,
		Drops:                a.drops,
		Rejects:              a.rejects,
		RuleErrors:           a.ruleErrors,
		EmptySelects:         a.emptySelects,
		NonFiniteRejects:     a.nonFiniteRejects,
		NonFiniteClamps:      a.nonFiniteClamps,
		NonFiniteQuarantines: a.nonFiniteQuarantines,
		AliveSessions:        a.sessions.Alive(),
		Expired:              a.sessions.Expired(),
		PurgedUpdates:        a.purged,
		IngestBytes:          a.ingestBytes,
		Done:                 a.done,
	}
	if a.occN > 0 {
		st.MeanOccupancy = float64(a.occSum) / float64(a.occN)
	}
	return st
}
