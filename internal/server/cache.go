package server

import (
	"container/list"
	"slices"
	"sync"

	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Cache is the canonical-instance result cache: a thread-safe LRU from
// canonical cache keys (Instance.CanonicalHash plus the question asked
// of the solver — see cacheKey in handlers.go) to finished responses.
// Repeated placements of the same module set are served from memory
// without touching the solver.
//
// Only definitive answers are stored: handlers never cache Unknown
// results (deadline/limit cutoffs), cached placements are re-verified
// against the requesting instance before being served (the canonical
// hash identifies instances up to task renumbering, so a permuted
// resubmission must not inherit coordinates by index), and an answer
// without a placement is served only to an instance identical to the
// one that filled it (colour refinement gives some non-isomorphic
// instances equal hashes) — see Server.servable.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry

	evictions *obs.Counter
	size      *obs.Gauge
}

// cacheEntry is one stored response. A value-only response (an
// infeasible answer, or an optimum without a witness) carries nothing
// to re-verify against a requesting instance, so its entry also keeps
// the task and arc lists of the instance that filled it.
type cacheEntry struct {
	key   string
	value *solveResponse
	tasks []model.Task
	prec  []model.Arc
}

// NewCache returns an LRU result cache holding up to capacity entries;
// capacity < 1 disables caching (every Get misses, Put is a no-op).
// Hit/miss/eviction counters and the size gauge are registered on reg.
func NewCache(capacity int, reg *obs.Registry) *Cache {
	return &Cache{
		cap:       capacity,
		order:     list.New(),
		entries:   make(map[string]*list.Element),
		evictions: reg.Counter(obs.MetricCacheEvictions),
		size:      reg.Gauge(obs.MetricCacheSize),
	}
}

// Get returns a copy of the cached entry for key and marks it most
// recently used. The hit/miss counters are owned by the handler layer,
// which knows whether a looked-up entry was actually servable.
func (c *Cache) Get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// Put stores the response under key, replacing any previous entry and
// evicting the least recently used entry when over capacity. in is the
// instance the response answers; a value-only response keeps copies of
// its task and arc lists.
func (c *Cache) Put(key string, v *solveResponse, in *model.Instance) {
	if c.cap < 1 {
		return
	}
	e := &cacheEntry{key: key, value: v}
	if v.Placement == nil {
		e.tasks, e.prec = slices.Clone(in.Tasks), slices.Clone(in.Prec)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.size.Set(int64(c.order.Len()))
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
