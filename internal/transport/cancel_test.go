package transport

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
)

// TestClientContextCancellation: a lock-step member blocked polling for the
// next round — the other member of its cohort never comes, so the round
// cannot end — returns once its context is cancelled.
func TestClientContextCancellation(t *testing.T) {
	l := newLockstep(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 100,
	}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- l.member(ctx, 0, func(int, []float64) ([]float64, error) { return []float64{0}, nil })
	}()
	// The first heartbeat joins the cohort; the ones after it poll for the
	// end of a round that cannot end.
	waitFor(t, "the member to poll for the next round", func() bool { return l.heartbeats.Load() >= 2 })
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled client returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not unblock after context cancellation")
	}
}

// TestRoundZeroWaitsForLateMembers: members need not start together. Round
// 0 waits four round timeouts after the first member joins, as the gob
// server's registration phase did, so a member that starts three timeouts
// late still has its place in every round.
func TestRoundZeroWaitsForLateMembers(t *testing.T) {
	l := newLockstep(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 2,
	}, 2)
	errs := make(chan error, 2)
	start := func(slot int) {
		go func() { errs <- l.member(context.Background(), slot, quadraticGradient([]float64{1}, 0, int64(slot))) }()
	}
	start(0)
	waitFor(t, "member 0's round-0 upload", func() bool { return l.updates.Load() == 1 })
	l.clock <- l.now // round 0 starts
	for range 3 {
		l.now = l.now.Add(lockstepTimeout)
		l.clock <- l.now
	}
	start(1)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("member: %v", err)
		}
	}
	if err := <-l.timer; err != nil {
		t.Fatalf("round timer: %v", err)
	}
	if h := l.agg.History(); len(h) != 2 || h[0].Buffer != 2 || l.timeouts.Load() != 0 {
		t.Errorf("history %+v with %d timed-out rounds, want both members in both rounds", h, l.timeouts.Load())
	}
}

// TestServerTimesOutSilentClient: in a cohort of one whose member joins and
// never submits, the round timer ends the round, nobody is left to step
// on, and the run fails.
func TestServerTimesOutSilentClient(t *testing.T) {
	l := newLockstep(t, asyncfl.Config{
		InitialParams: []float64{0}, Rule: aggregate.NewMean(), LR: 0.1, TargetSteps: 3,
	}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- l.member(ctx, 0, func(int, []float64) ([]float64, error) {
			<-ctx.Done() // never answer
			return nil, ctx.Err()
		})
	}()
	waitFor(t, "the member to join", func() bool { return l.heartbeats.Load() == 1 })
	l.expire()
	if err := <-l.timer; err == nil || !strings.Contains(err.Error(), "did not advance the model") {
		t.Errorf("round timer: %v, want the run failed on a round that did not advance", err)
	}
	cancel()
	<-done
}
