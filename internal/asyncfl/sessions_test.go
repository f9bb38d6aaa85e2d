package asyncfl

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// scanTable is the reference the renewal-ordered SessionTable is checked
// against: one expiry per id, every lease examined on every sweep.
type scanTable struct {
	ttl     time.Duration
	expiry  map[string]time.Time
	expired int64
}

func (s *scanTable) touch(id string, now time.Time) (gone []string, known bool) {
	_, known = s.expiry[id]
	s.expiry[id] = now.Add(s.ttl)
	if s.ttl == 0 {
		return nil, known
	}
	for other, exp := range s.expiry {
		if other != id && now.After(exp) {
			gone = append(gone, other)
			delete(s.expiry, other)
		}
	}
	sort.Strings(gone)
	s.expired += int64(len(gone))
	return gone, known
}

// TestSessionTableMatchesFullScan drives the table and the full-scan
// reference through the same fake-clock schedules — renewals that reorder
// leases, idle gaps that expire some or all of them, a first touch from a
// new id, an id returning after its expiry — and requires the same answer
// from every call.
func TestSessionTableMatchesFullScan(t *testing.T) {
	type op struct {
		advance time.Duration
		id      string
	}
	const ttl = time.Minute
	scripted := []op{
		{0, "a"}, {10 * time.Second, "b"}, {10 * time.Second, "c"},
		{30 * time.Second, "a"}, // a renewed: order is now b, c, a
		{15 * time.Second, "z"}, // b overdue (65s), c not (55s)
		{10 * time.Second, "d"}, // c overdue on d's touch
		{0, "b"},                // b returns as a new session
		{ttl, "b"},              // exactly at a's and d's expiry: not overdue
		{time.Nanosecond, "b"},  // now they are; b itself is renewed, not swept
		{2 * ttl, "b"},          // the renewed id survives any gap
		{2 * ttl, "y"},          // until another id's touch
		{0, "x"},
	}
	random := func(seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, 400)
		for i := range ops {
			ops[i].advance = time.Duration(rng.Intn(25)) * time.Second
			ops[i].id = fmt.Sprintf("c%02d", rng.Intn(13))
		}
		return ops
	}
	cases := []struct {
		name string
		ttl  time.Duration
		ops  []op
	}{
		{"scripted", ttl, scripted},
		{"random-1", ttl, random(1)},
		{"random-2", ttl, random(2)},
		{"zero-ttl", 0, random(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(0, 0)
			st := NewSessionTable(tc.ttl, func() time.Time { return clock })
			ref := &scanTable{ttl: tc.ttl, expiry: map[string]time.Time{}}
			for i, o := range tc.ops {
				clock = clock.Add(o.advance)
				got, known := st.Touch(o.id)
				want, wantKnown := ref.touch(o.id, clock)
				if !slices.Equal(got, want) || known != wantKnown {
					t.Fatalf("op %d: Touch(%s) = %v, %v; full scan %v, %v", i, o.id, got, known, want, wantKnown)
				}
				if st.Alive() != len(ref.expiry) || st.Expired() != ref.expired {
					t.Fatalf("op %d: alive %d expired %d; full scan %d, %d",
						i, st.Alive(), st.Expired(), len(ref.expiry), ref.expired)
				}
			}
		})
	}
}

// TestSessionTableClockStepsBack pins the one assumption the renewal order
// makes: a clock that steps backwards may delay an expiry but never causes
// one.
func TestSessionTableClockStepsBack(t *testing.T) {
	clock := time.Unix(1000, 0)
	st := NewSessionTable(time.Minute, func() time.Time { return clock })
	st.Touch("late") // expires at 1060
	clock = time.Unix(900, 0)
	st.Touch("early") // expires at 960, queued behind "late"
	clock = time.Unix(1000, 0)
	if gone, _ := st.Touch("probe"); len(gone) != 0 {
		t.Fatalf("sweep at 1000 = %v: \"early\" waits behind \"late\"", gone)
	}
	clock = time.Unix(1061, 0)
	if gone, _ := st.Touch("probe"); !slices.Equal(gone, []string{"early", "late"}) {
		t.Fatalf("sweep at 1061 = %v, want [early late]", gone)
	}
}

// BenchmarkSessionTouch renews one live id among ids-1 idle ones: what
// every submit pays. The per-op time must not depend on ids.
func BenchmarkSessionTouch(b *testing.B) {
	for _, bc := range []struct {
		name string
		ids  int
	}{{"ids=1e3", 1e3}, {"ids=1e5", 1e5}} {
		b.Run(bc.name, func(b *testing.B) {
			st := NewSessionTable(time.Hour, nil)
			for i := 0; i < bc.ids; i++ {
				st.Touch(fmt.Sprintf("idle-%d", i))
			}
			for b.Loop() {
				st.Touch("live")
			}
		})
	}
}
