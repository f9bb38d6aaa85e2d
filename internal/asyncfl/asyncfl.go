// Package asyncfl is the server-side aggregation core: the one place a
// served gradient buffer is screened, stepped through aggregate.Step (the
// tail the simulation's round shares) and applied. It is a
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
// The HTTP protocol in internal/transport (/asyncfl/v2) is an adapter over
// this core. Free-running clients are the general case: the defense sees a
// staleness-skewed buffer rather than a synchronized cohort, and the
// staleness discount plays the role the server's trust weighting plays in
// server-learning defenses. The paper's synchronous setting is the
// deterministic case with K = cohort: member s of the cohort submits round
// v at schedule position v·K + s, every update is fresh, and block v — the
// positions [vK, (v+1)K) — is the round. A buffer with no stale update has
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
// without a single sleep. In that mode K counts decided positions, not
// accepted ones: a position is decided when its update is accepted, refused
// (by the screen, admission or the transport) or abandoned, so every block
// closes, normally with a step. A slot (a position mod K) belongs to the
// first client that claims one of its positions. Flush is the round
// barrier: it abandons the open block's missing positions and drops their
// slots from the cohort, as a dropped connection leaves a synchronous round.
package asyncfl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/sanitize"
)

// Defaults for Config fields left zero.
const (
	// DefaultQueueCap bounds each client's update queue.
	DefaultQueueCap = 4
	// DefaultSessionTTL is the liveness lease lifetime.
	DefaultSessionTTL = time.Minute
)

// reorderWindow bounds the deterministic reorder buffer: an update whose Seq
// is reorderWindow or more positions ahead of the next schedule position is
// refused instead of parked, so a client cannot grow the buffer without
// limit by skipping ahead.
const reorderWindow = 1 << 14

// Config describes a buffered asynchronous aggregator.
type Config struct {
	// InitialParams is the starting global parameter vector (required).
	InitialParams []float64
	// K triggers an aggregation step every K accepted arrivals (required,
	// >= 1) — in deterministic mode, every K decided schedule positions.
	// The step drains every queued update — usually exactly K, fewer when
	// drop-oldest evicted some or a position was refused, so a single
	// hyperactive client bounded by QueueCap cannot stall aggregation.
	K int
	// Alpha is the staleness-discount exponent of w(s) = 1/(1+s)^alpha.
	// 0 degenerates to the plain buffered mean; must not be negative.
	Alpha float64
	// Rule, when non-nil, is the defense aggregate.Step runs over each
	// drained buffer: a selecting rule's survivors merge under staleness
	// weights, and a coordinate-wise rule or an all-fresh buffer steps the
	// rule's own aggregate. nil merges the whole buffer. A rule that needs a
	// server reference gradient (an aggregate.ServerLearner such as FLTrust,
	// guarded or not) is refused: the serving path has no root dataset.
	Rule aggregate.Rule
	// LR / Momentum / WeightDecay configure the server-side SGD step.
	LR          float64
	Momentum    float64
	WeightDecay float64
	// QueueCap bounds each client's queue (0 = DefaultQueueCap). A full
	// queue drops its oldest update and reports backpressure to the
	// submitter.
	QueueCap int
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
	// Each block of K positions closes with a step (see K and Flush), and
	// each slot (Seq mod K) takes updates from one client only: the first
	// that claims a position in it.
	Deterministic bool
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
	}
	if _, ok := aggregate.Unwrap(c.Rule).(aggregate.ServerLearner); ok {
		return fmt.Errorf("asyncfl: rule %s needs a server reference gradient, which the serving path does not compute", c.Rule.Name())
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
	// Dropped reports this client's oldest queued update was evicted to
	// make room — the drop-oldest half of backpressure.
	Dropped bool
	// Backpressure reports the client's queue is at capacity after this
	// submit: the client should fetch a fresh model before submitting
	// again rather than pile up doomed updates.
	Backpressure bool
	// Stepped reports this arrival triggered an aggregation step that
	// advanced the model (a step the defense or merge skipped does not).
	Stepped bool
	// NonFinite reports the update carried NaN or ±Inf coordinates and
	// was refused by Submit's screen.
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
	// MeanStaleness is the drained buffer's mean age in model versions.
	MeanStaleness float64
}

// Stats snapshots the aggregator's counters.
type Stats struct {
	Version    int
	Steps      int64
	Arrivals   int64 // accepted updates
	Buffered   int   // updates currently queued
	Drops      int64 // evictions by drop-oldest
	Rejects    int64 // refused updates (future-versioned, non-finite, done)
	RuleErrors int64 // steps skipped because the defense errored
	// NonFiniteRejects counts updates Submit's screen refused for
	// carrying NaN or ±Inf coordinates (also counted in Rejects).
	NonFiniteRejects int64
	// EmptySelects counts steps skipped with nothing to merge: the defense
	// kept nothing of a buffer with a stale entry, or every position of a
	// deterministic block was refused.
	EmptySelects  int64
	AliveSessions int
	Expired       int64 // sessions ever expired
	PurgedUpdates int64 // queued updates discarded by session expiry
	// DroppedSlots is the number of cohort slots Flush dropped in
	// deterministic mode: members that missed a round and are out.
	DroppedSlots int
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
	sinceK   int   // accepted arrivals since the last step (not in deterministic mode)
	seqNext  int64 // deterministic mode: next schedule position to decide
	// reorder parks out-of-order deterministic-mode updates by schedule
	// position; a nil entry is a tombstone for a position abandoned or
	// refused by the transport, which the drain decides as is.
	reorder map[int64]*Update
	// dropped holds the slots Flush dropped from the cohort, whose later
	// positions decide themselves; owner, each slot's first claimant.
	dropped map[int64]bool
	owner   map[int64]string

	// spare is the free list of update slots: d-vectors that held an update
	// whose life has ended (refused by the screen, evicted, purged or
	// drained by a step) and wait for the next one. A slot returns only
	// when its update leaves the buffer or the reorder map, so the list
	// never holds more than the peak of buffered plus parked updates and
	// needs no cap.
	spare [][]float64
	// Per-step scratch, resliced by every step.
	buf       []entry
	grads     [][]float64
	staleness []int
	scratch   aggregate.StepScratch

	steps            int64
	ingestBytes      int64
	drops            int64
	rejects          int64
	ruleErrors       int64
	emptySelects     int64
	nonFiniteRejects int64
	purged           int64
	occSum           int64
	occN             int64
	history          []StepSummary
}

// New builds an aggregator from cfg.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
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
		cfg:      cfg,
		sessions: NewSessionTable(ttl, cfg.Now),
		params:   params,
		opt:      nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay),
		doneCh:   make(chan struct{}),
		queues:   map[string][]entry{},
		reorder:  map[int64]*Update{},
		dropped:  map[int64]bool{},
		owner:    map[int64]string{},
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
// K accepted arrivals, or every K decided positions in deterministic mode —
// runs an aggregation step inline before returning. The returned
// SubmitResult carries the backpressure signals the transport relays to the
// client. Submitting to a Done aggregator is refused.
//
// Submit copies u.Grad into an update slot of its own before anything else
// looks at it and never keeps the caller's slice: a transport may hand it
// request scratch and reuse that scratch once Submit returns.
//
// The slot is screened once, on entry, in both modes: this is the one
// finiteness check of every door a served gradient comes through, the wire
// included (codec.Decode checks formats only). A gradient carrying NaN or
// ±Inf is refused with NonFinite set and never buffered or parked; in
// deterministic mode it decides its schedule position at once, and its
// result reports the step when that position closes the block.
func (a *Aggregator) Submit(u Update) (SubmitResult, error) {
	if len(u.Grad) != len(a.cfg.InitialParams) {
		return SubmitResult{}, fmt.Errorf("asyncfl: client %q sent %d-dim gradient, want %d",
			u.Client, len(u.Grad), len(a.cfg.InitialParams))
	}
	expired, _ := a.sessions.Touch(u.Client)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.purgeLocked(expired)

	if a.cfg.Deterministic {
		if err := a.claimLocked(u.Client, u.Seq); err != nil {
			return SubmitResult{}, err
		}
	}
	u.Grad = a.slotLocked(u.Grad)
	if sanitize.Screen(u.Grad, sanitize.Reject) == sanitize.Rejected {
		a.spare = append(a.spare, u.Grad)
		a.nonFiniteRejects++
		a.rejects++
		res := SubmitResult{Version: a.version, Done: a.done}
		if a.cfg.Deterministic {
			a.reorder[u.Seq] = nil // a tombstone: the drain decides it as is
			a.drainLocked(u.Seq, &res)
		}
		res.NonFinite = true
		return res, nil
	}

	if !a.cfg.Deterministic {
		res := a.applyLocked(u)
		if res.Accepted {
			if a.sinceK++; a.sinceK >= a.cfg.K {
				a.stepInto(&res)
			}
		}
		return res, nil
	}

	// Deterministic mode: park the update and decide every consecutive
	// schedule position that is now decidable, returning the caller's own
	// outcome once its turn comes. applyLocked takes the slot over when it
	// drains. (A parked variable of its own, not &u: u escaping would cost
	// every Submit a heap copy of it.)
	parked := u
	a.reorder[u.Seq] = &parked
	res := SubmitResult{Held: true, Version: a.version, Done: a.done}
	a.drainLocked(u.Seq, &res)
	return res, nil
}

// Refuse accounts an update the transport refused before Submit could see
// it (an unaccepted codec, a declared dimension other than Dim, a
// malformed payload). In deterministic mode it decides position seq as a
// refused update, unless Submit would refuse seq (another client's slot,
// say), and renews the session's lease like any client message. Outside
// deterministic mode a refusal decides nothing, and Refuse does nothing.
func (a *Aggregator) Refuse(client string, seq int64) {
	if !a.cfg.Deterministic {
		return
	}
	expired, _ := a.sessions.Touch(client)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.purgeLocked(expired)
	if a.claimLocked(client, seq) == nil {
		a.reorder[seq] = nil
		a.drainLocked(seq, nil)
	}
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

// claimLocked refuses a deterministic-mode schedule position that is
// decided, too far ahead, parked, dropped or another client's; otherwise the
// position's slot belongs to client from then on. Callers hold a.mu.
func (a *Aggregator) claimLocked(client string, seq int64) error {
	_, dup := a.reorder[seq]
	slot := seq % int64(a.cfg.K)
	owner, owned := a.owner[slot]
	switch {
	case seq < a.seqNext:
		return fmt.Errorf("asyncfl: schedule position %d already applied (next is %d)", seq, a.seqNext)
	case seq >= a.seqNext+reorderWindow:
		return fmt.Errorf("asyncfl: schedule position %d too far ahead of %d (reorder window %d)",
			seq, a.seqNext, reorderWindow)
	case dup:
		return fmt.Errorf("asyncfl: duplicate schedule position %d", seq)
	case a.dropped[slot]:
		return fmt.Errorf("asyncfl: schedule position %d is in slot %d, dropped from the cohort", seq, slot)
	case owned && owner != client:
		return fmt.Errorf("asyncfl: schedule position %d is in slot %d, which belongs to client %q", seq, slot, owner)
	}
	if !owned {
		a.owner[slot] = client
	}
	return nil
}

// drainLocked decides every consecutive schedule position that is now
// decidable — parked, tombstoned, or in a dropped slot — and steps each
// time a block of K positions closes. The outcome of position own is
// written to res when res is not nil. Callers hold a.mu.
func (a *Aggregator) drainLocked(own int64, res *SubmitResult) {
	k := int64(a.cfg.K)
	for len(a.dropped) < a.cfg.K { // with every slot dropped, nothing is left to decide
		seq := a.seqNext
		u, parked := a.reorder[seq]
		if !parked && !a.dropped[seq%k] {
			return
		}
		delete(a.reorder, seq)
		a.seqNext++
		r := SubmitResult{Version: a.version, Done: a.done}
		if u != nil {
			r = a.applyLocked(*u)
		}
		if a.seqNext%k == 0 {
			a.stepInto(&r)
		}
		if res != nil && seq == own {
			*res = r
		}
	}
}

// applyLocked runs the accept/enqueue path for one update whose Grad is an
// update slot (slotLocked): when it returns, the slot is buffered or back on
// the free list. The caller decides whether the arrival steps. Callers hold
// a.mu.
func (a *Aggregator) applyLocked(u Update) SubmitResult {
	res, ok := a.admitLocked(u)
	if !ok {
		a.spare = append(a.spare, u.Grad)
		return res
	}
	q := a.queues[u.Client]
	if len(q) >= a.cfg.QueueCap {
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
	res.Backpressure = len(q) >= a.cfg.QueueCap
	a.occSum += int64(a.buffered)
	a.occN++
	return res
}

// stepInto runs the aggregation step an arrival triggered and reports it on
// that arrival's res: Stepped only when the step advanced the model. Callers
// hold a.mu.
func (a *Aggregator) stepInto(res *SubmitResult) {
	before := a.version
	a.stepLocked()
	res.Stepped, res.Version, res.Done = a.version > before, a.version, a.done
}

// admitLocked decides whether a screened update may enter the buffer: it
// refuses the done and the future-versioned. Callers hold a.mu.
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
	return res, true
}

// Flush ends lock-step round version of a deterministic aggregator and
// reports whether the model advanced. It abandons the open block's
// undecided positions and drops their slots from the cohort (later
// positions there decide themselves; updates parked there are discarded),
// so the block steps over what it holds. A round that is not current or
// whose block already closed, a Done aggregator and one outside
// deterministic mode are no-ops.
func (a *Aggregator) Flush(version int) (stepped bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := int64(a.cfg.K)
	if a.done || version != a.version || !a.cfg.Deterministic || a.seqNext/k != int64(version) {
		return false
	}
	for seq, end := a.seqNext, (a.seqNext/k+1)*k; seq < end; seq++ {
		if _, decidable := a.reorder[seq]; !decidable {
			a.dropped[seq%k] = true
		}
	}
	for seq, u := range a.reorder {
		if u != nil && a.dropped[seq%k] {
			a.spare = append(a.spare, u.Grad)
			a.reorder[seq] = nil
		}
	}
	a.drainLocked(-1, nil)
	return a.version > version
}

// stepLocked drains the whole buffer in arrival order, hands it to
// aggregate.Step (defense, staleness-weighted merge of the survivors,
// finiteness check), applies the server SGD step and restarts the
// K-cadence. Callers hold a.mu.
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
		// Only a deterministic block closes empty: every position refused.
		a.emptySelects++
		a.logf("asyncfl: block closed with every position refused or abandoned (step skipped)")
		return
	}
	// Every drained slot goes back on the free list when the step ends, on
	// every path out of it: deferred, so it happens only after opt.Step has
	// consumed merged, which may alias one of the slots.
	defer a.releaseLocked(buf)

	grads, staleness := a.grads[:0], a.staleness[:0]
	sum := 0
	for _, e := range buf {
		s := a.version - e.version
		grads = append(grads, e.grad)
		staleness = append(staleness, s)
		sum += s
	}
	a.grads, a.staleness = grads, staleness

	var defend func([][]float64) (*aggregate.Result, error)
	if a.cfg.Rule != nil {
		defend = a.cfg.Rule.Aggregate
	}
	merged, res, out, err := aggregate.Step(defend, grads, staleness, a.cfg.Alpha, &a.scratch)
	switch out {
	case aggregate.KeptNone:
		a.emptySelects++
		a.logf("asyncfl: %v (step skipped)", err)
		return
	case aggregate.RuleFailed, aggregate.NonFiniteMerge:
		// A failing defense must not default to an undefended mean, and a
		// non-finite merge must never reach the optimizer: discard the
		// buffer and skip the step.
		a.ruleErrors++
		a.logf("asyncfl: step over %d-update buffer failed: %v (step skipped)", len(buf), err)
		return
	}
	if err := a.opt.Step(a.params, merged); err != nil {
		a.ruleErrors++
		a.logf("asyncfl: optimizer step failed: %v", err)
		return
	}
	kept := len(buf)
	if res != nil && res.Selected != nil {
		kept = len(res.Selected)
	}
	a.steps++
	a.version++
	a.history = append(a.history, StepSummary{
		Step:          a.steps,
		Version:       a.version,
		Buffer:        len(buf),
		Kept:          kept,
		MeanStaleness: float64(sum) / float64(len(buf)),
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
		Version:          a.version,
		Steps:            a.steps,
		Arrivals:         a.arrival,
		Buffered:         a.buffered,
		Drops:            a.drops,
		Rejects:          a.rejects,
		RuleErrors:       a.ruleErrors,
		EmptySelects:     a.emptySelects,
		NonFiniteRejects: a.nonFiniteRejects,
		AliveSessions:    a.sessions.Alive(),
		Expired:          a.sessions.Expired(),
		PurgedUpdates:    a.purged,
		DroppedSlots:     len(a.dropped),
		IngestBytes:      a.ingestBytes,
		Done:             a.done,
	}
	if a.occN > 0 {
		st.MeanOccupancy = float64(a.occSum) / float64(a.occN)
	}
	return st
}
