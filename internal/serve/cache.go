package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Progress is one observation of an in-flight simulation's virtual
// clock, published to SSE subscribers of the run's cache entry.
type Progress struct {
	// AtMS is the virtual instant reached, in milliseconds.
	AtMS int64 `json:"at_ms"`
	// HorizonMS is the scenario horizon, in milliseconds.
	HorizonMS int64 `json:"horizon_ms"`
	// Percent is 100*AtMS/HorizonMS, pre-computed for dashboards.
	Percent float64 `json:"percent"`
}

// result is the terminal state of one completed simulation — exactly
// the deterministic fields every response for the same digest is
// rendered from, so a cache hit returns bytes equal to the original
// response. No wall-clock or per-request data belongs here.
type result struct {
	report       []byte // rendered per-task report, byte-equal to rtrun's summary
	detections   int64
	switches     int64
	successRatio float64
}

// entry is one content-addressed cache slot. It doubles as the
// singleflight rendezvous: the request that creates it owns the
// simulation, every other request for the same digest waits on done.
type entry struct {
	digest string
	done   chan struct{} // closed once res/err are final
	res    *result
	err    error

	mu      sync.Mutex
	subs    []chan Progress
	last    Progress
	hasLast bool
}

func newEntry(digest string) *entry {
	return &entry{digest: digest, done: make(chan struct{})}
}

// complete publishes the terminal state and wakes every waiter. Must
// be called exactly once.
func (e *entry) complete(res *result, err error) {
	e.res, e.err = res, err
	close(e.done)
}

// subscribe registers a progress listener, replaying the most recent
// observation (if any) so late subscribers are not blind until the
// next boundary. The returned cancel is idempotent and must be called
// to release the slot.
func (e *entry) subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	e.mu.Lock()
	if e.hasLast {
		ch <- e.last // buffered, cannot block
	}
	e.subs = append(e.subs, ch)
	e.mu.Unlock()
	cancel := func() {
		e.mu.Lock()
		for i, c := range e.subs {
			if c == ch {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
	}
	return ch, cancel
}

// publish fans a progress observation out to subscribers. Sends are
// non-blocking: a slow SSE client drops observations instead of
// stalling the engine goroutine.
func (e *entry) publish(p Progress) {
	e.mu.Lock()
	e.last, e.hasLast = p, true
	for _, ch := range e.subs {
		select {
		case ch <- p:
		default:
		}
	}
	e.mu.Unlock()
}

// cache is the content-addressed result store. Completed entries form
// an LRU bounded at max (so the server's memory is bounded no matter
// how many distinct scenarios arrive); in-flight entries live only in
// the map and cannot be evicted, so singleflight rendezvous is never
// lost mid-run.
//
// In front of it sits the body memo, the first level of a two-level
// key: the SHA-256 of a raw request body maps to the digest its
// decoded scenario had, so a byte-identical repeat finds its entry
// without decoding or re-encoding. A body is memoized only once it
// has decoded, validated and digested, so the memo can only ever
// shortcut a request that would have reached the same entry anyway.
// The memo is an LRU of at most max fixed-size records.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	lru     *list.List // completed digests, front = most recent
	pos     map[string]*list.Element
	memo    map[bodyKey]*list.Element
	memoLRU *list.List // *memoRecord, front = most recent
}

// bodyKey is the SHA-256 of a raw request body.
type bodyKey = [sha256.Size]byte

type memoRecord struct {
	body   bodyKey
	digest string
}

func newCache(max int) *cache {
	return &cache{
		max:     max,
		entries: make(map[string]*entry),
		lru:     list.New(),
		pos:     make(map[string]*list.Element),
		memo:    make(map[bodyKey]*list.Element),
		memoLRU: list.New(),
	}
}

// join returns the resident entry (completed or in flight) for a
// memoized body, or nil when the body was never memoized or its
// result has since been evicted or failed.
func (c *cache) join(body bodyKey) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.memo[body]
	if !ok {
		return nil
	}
	digest := el.Value.(*memoRecord).digest
	e, ok := c.entries[digest]
	if !ok {
		return nil
	}
	c.memoLRU.MoveToFront(el)
	if el, ok := c.pos[digest]; ok {
		c.lru.MoveToFront(el)
	}
	return e
}

// memoize records that body decodes to a scenario with digest,
// evicting the coldest record beyond max.
func (c *cache) memoize(body bodyKey, digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.memo[body]; ok {
		// A body always decodes to the same digest; only its
		// recency changes.
		c.memoLRU.MoveToFront(el)
		return
	}
	c.memo[body] = c.memoLRU.PushFront(&memoRecord{body: body, digest: digest})
	if c.memoLRU.Len() > c.max {
		el := c.memoLRU.Back()
		c.memoLRU.Remove(el)
		delete(c.memo, el.Value.(*memoRecord).body)
	}
}

// lookup returns the entry for digest, creating an in-flight one when
// absent. created reports whether the caller owns the simulation (the
// singleflight winner); everyone else waits on the entry.
func (c *cache) lookup(digest string) (e *entry, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[digest]; ok {
		if el, ok := c.pos[digest]; ok {
			c.lru.MoveToFront(el)
		}
		return e, false
	}
	e = newEntry(digest)
	c.entries[digest] = e
	return e, true
}

// completed finalizes an entry. Successes join the LRU (evicting the
// coldest results beyond max); failures are forgotten so a transient
// error — notably admission-queue overload — is retried by the next
// request instead of being served forever.
func (c *cache) completed(e *entry, res *result, err error) {
	e.complete(res, err)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		delete(c.entries, e.digest)
		return
	}
	c.pos[e.digest] = c.lru.PushFront(e.digest)
	for c.lru.Len() > c.max {
		el := c.lru.Back()
		d := el.Value.(string)
		c.lru.Remove(el)
		delete(c.pos, d)
		delete(c.entries, d)
	}
}

// len is the number of resident entries (completed + in-flight).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
