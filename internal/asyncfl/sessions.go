package asyncfl

import (
	"container/list"
	"sort"
	"sync"
	"time"
)

// SessionTable tracks client liveness with TTL leases: any message from a
// client renews its lease, a client that stays silent past the TTL is
// presumed gone, and expiry is observed lazily on the next sweep — no
// background timer goroutine, so tests drive churn with a fake clock
// instead of sleeping.
//
// Leases are kept in renewal order, so a sweep costs O(expired), not
// O(live): ids are free to mint, and a table that scanned every lease on
// every request would let an attacker set the price of an honest submit.
// The order equals expiry order as long as the clock never runs backwards;
// a backwards step only delays an expiry (the lease renewed at the earlier
// reading waits behind the ones renewed before the step), never causes one.
//
// All methods are safe for concurrent use.
type SessionTable struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time

	leases  map[string]*list.Element // id → its *lease in order
	order   *list.List               // front = least recently renewed
	expired int64                    // total sessions ever expired
}

// lease is one session's entry in SessionTable.order.
type lease struct {
	id     string
	expiry time.Time
}

// NewSessionTable builds a table whose leases last ttl (0 disables expiry —
// every session lives forever). now supplies the clock (nil = time.Now);
// it is injectable so churn tests advance a fake clock instead of
// sleeping.
func NewSessionTable(ttl time.Duration, now func() time.Time) *SessionTable {
	if now == nil {
		now = time.Now
	}
	return &SessionTable{
		ttl:    ttl,
		now:    now,
		leases: map[string]*list.Element{},
		order:  list.New(),
	}
}

// Touch registers id if unknown and renews its lease either way, then
// sweeps the table. It returns the ids whose leases expired during the
// sweep (sorted, so callers purge state in a deterministic order) and
// whether id was already known before the call.
func (t *SessionTable) Touch(id string) (expired []string, known bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var expiry time.Time
	if t.ttl > 0 {
		expiry = t.now().Add(t.ttl)
	}
	el, known := t.leases[id]
	if known {
		el.Value.(*lease).expiry = expiry
		t.order.MoveToBack(el)
	} else {
		el = t.order.PushBack(&lease{id: id, expiry: expiry})
		t.leases[id] = el
	}
	return t.sweepLocked(el), known
}

// Sweep expires every overdue session and returns their ids (sorted).
func (t *SessionTable) Sweep() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sweepLocked(nil)
}

// sweepLocked pops overdue leases off the front of the renewal order and
// stops at the first live one or at keep (the session being renewed, which
// is at the back: everything overdue is ahead of it). Callers hold t.mu.
func (t *SessionTable) sweepLocked(keep *list.Element) []string {
	if t.ttl == 0 {
		return nil
	}
	now := t.now()
	var gone []string
	for el := t.order.Front(); el != nil && el != keep; el = t.order.Front() {
		l := el.Value.(*lease)
		if !now.After(l.expiry) {
			break
		}
		t.order.Remove(el)
		delete(t.leases, l.id)
		gone = append(gone, l.id)
	}
	sort.Strings(gone)
	t.expired += int64(len(gone))
	return gone
}

// Alive returns the number of live sessions (without sweeping, so the
// count may include sessions that would expire on the next Touch).
func (t *SessionTable) Alive() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// Expired returns the total number of sessions that have ever expired.
func (t *SessionTable) Expired() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expired
}
