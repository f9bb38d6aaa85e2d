package transport

import (
	"context"
	"fmt"
	"time"

	"github.com/signguard/signguard/internal/asyncfl"
)

// RunRoundTimer ends the lock-step rounds a member misses on agg, the
// deterministic aggregator with K = cohort behind the handler. Once a member
// has been seen, a round whose version has not moved for one timeout (four
// for round 0, so members need not start together) is flushed: its missing
// members leave the cohort and the round steps on what arrived. It returns
// nil once agg is Done, and an error when ctx is cancelled or a round closes
// without a step (every position refused, a rule error, nobody left). logf,
// when non-nil, hears of every round the timer ends.
func RunRoundTimer(ctx context.Context, agg *asyncfl.Aggregator, timeout time.Duration, logf func(format string, args ...any)) error {
	if timeout <= 0 {
		return fmt.Errorf("transport: round timeout %v invalid", timeout)
	}
	tick := time.NewTicker(max(timeout/8, time.Millisecond))
	defer tick.Stop()
	return runRoundTimer(ctx, agg, timeout, tick.C, logf)
}

// runRoundTimer is RunRoundTimer on a clock its caller drives: each time
// read from clock is one check of the round at that time. Tests send the
// times themselves, so whether a round times out never depends on how fast
// the machine runs the cohort.
func runRoundTimer(ctx context.Context, agg *asyncfl.Aggregator, timeout time.Duration, clock <-chan time.Time, logf func(format string, args ...any)) error {
	stalled := func(st asyncfl.Stats) error {
		return fmt.Errorf("transport: round %d did not advance the model: %d cohort members dropped, %d rule errors, %d empty selections, %d rejects (%d non-finite)",
			st.Version, st.DroppedSlots, st.RuleErrors, st.EmptySelects, st.Rejects, st.NonFiniteRejects)
	}
	version, since := -1, time.Time{}
	for {
		var now time.Time
		select {
		case <-agg.Done():
			return nil
		case <-ctx.Done():
			return fmt.Errorf("transport: round timer cancelled: %w", ctx.Err())
		case now = <-clock:
		}
		st := agg.Stats()
		if st.RuleErrors+st.EmptySelects > 0 {
			// The schedule moved on to the next block but the version did
			// not, so every member's next position is already decided.
			return stalled(st)
		}
		if st.Version != version || st.AliveSessions == 0 {
			version, since = st.Version, now // a new round, or nobody joined yet
			continue
		}
		limit := timeout
		if version == 0 {
			limit = 4 * timeout
		}
		if now.Sub(since) < limit {
			continue
		}
		if !agg.Flush(version) {
			if st = agg.Stats(); st.Done || st.Version != version {
				continue // done, or the round ended on its own meanwhile
			}
			return stalled(st)
		}
		if logf != nil {
			logf("transport: round %d timed out after %v and stepped without its missing members (%d dropped in all)",
				version, limit, agg.Stats().DroppedSlots)
		}
	}
}
