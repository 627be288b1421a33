package serve

import (
	"errors"
	"sync"
)

// cache is a keyed singleflight, used for per-spec templates and ECO base
// states alike: the first request for a key builds the value while
// every concurrent request for the same key waits on the entry's ready
// channel, so an expensive build happens exactly once per key no matter how
// many identical requests arrive together. Failed builds, panicked ones
// included, are evicted so a transient failure does not poison the key. The
// zero value is ready to use.
type cache[V any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	ready chan struct{} // closed when v/err are set
	v     V
	err   error
}

// get returns the value for key, building it with build if this is the
// first request. hit reports whether the value already existed (or was
// being built by another request) — the caller's build ran only when hit is
// false and err may be non-nil.
func (c *cache[V]) get(key string, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		c.mu.Unlock()
		<-e.ready
		return e.v, true, e.err
	}
	if c.m == nil {
		c.m = make(map[string]*cacheEntry[V])
	}
	// The entry reads as failed until build returns, so a build that panics
	// still releases its waiters with an error and is evicted; the panic
	// itself goes on to the caller's guard.
	e = &cacheEntry[V]{ready: make(chan struct{}), err: errors.New("build panicked")}
	c.m[key] = e
	c.mu.Unlock()
	defer func() {
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			// Evict only our own failed entry: a concurrent retry may
			// already have replaced it.
			if c.m[key] == e {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
	}()
	e.v, e.err = build()
	return e.v, false, e.err
}
