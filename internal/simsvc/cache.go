package simsvc

import (
	"context"
	"sync"

	"eole"
	"eole/internal/artifact"
)

// result is one cached cell: the report and its canonical encoding.
// Both are immutable once published, so they are shared without
// copying — the encoding with the artifact store's memory tier too.
type result struct {
	report *eole.Report
	enc    Encoded
}

// resultCache is the content-addressed report store: a bounded typed
// in-memory map in front of the artifact fabric, which keeps results
// in its own memory tier and, with a directory or a peer configured,
// across processes or across the cluster.
//
// The memory side is capped at max entries with FIFO eviction —
// results are content-addressed and re-creatable (from the fabric or
// by re-simulating), so eviction never loses correctness, only
// warmth. This keeps a long-running server bounded even when clients
// submit unboundedly many distinct (warmup, measure) tuples.
type resultCache struct {
	mu    sync.RWMutex
	mem   map[Key]result
	order []Key // insertion order, for FIFO eviction
	max   int
	store *artifact.Store
}

func newResultCache(store *artifact.Store, max int) *resultCache {
	return &resultCache{mem: make(map[Key]result), max: max, store: store}
}

// getMem returns the in-memory result for key, if any. It takes only
// the cache's own lock and never touches the fabric, so it is safe to
// call under the service mutex.
func (c *resultCache) getMem(key Key) (result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.mem[key]
	return r, ok
}

// getMems is getMem for a batch under one read lock: out[i] is the
// encoding held for keys[i], zero when none is.
func (c *resultCache) getMems(keys []Key, out []Encoded) (hits int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, k := range keys {
		out[i] = c.mem[k].enc
		if out[i].b != nil {
			hits++
		}
	}
	return hits
}

// getStore loads key, whose artifact name is name (key.String()), from
// the artifact fabric (its memory tier, the disk, or — unless
// localOnly — a peer) and promotes it to the typed map, keeping the
// fabric's bytes as the result's encoding. It can perform file and
// network I/O — callers must not hold the service mutex. A fabric
// payload that is not the canonical encoding of a report
// (CanonicalReport) is a miss: its bytes are spliced into replies
// under any label, and a payload that merely opens with a "config"
// string could carry a second "config" member that would outlive the
// splice.
func (c *resultCache) getStore(ctx context.Context, key Key, name string, localOnly bool) (result, bool) {
	var b []byte
	var err error
	if localOnly {
		b, err = c.store.GetLocal(artifact.KindResult, name)
	} else {
		b, err = c.store.Get(ctx, artifact.KindResult, name)
	}
	if err != nil {
		return result{}, false
	}
	r, err := canonicalReport(b)
	if err != nil {
		return result{}, false
	}
	c.putMem(key, r)
	return r, true
}

// putMem inserts into the bounded in-memory map, evicting the oldest
// entry when full.
func (c *resultCache) putMem(key Key, r result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.mem[key]; !exists {
		c.order = append(c.order, key)
	}
	c.mem[key] = r
	for c.max > 0 && len(c.mem) > c.max {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.mem, victim)
	}
}

// spill writes a fresh result's encoding to the artifact fabric under
// name (its key's String) and, unless localOnly, shares it with the
// peer when one is configured, so it warms the whole fleet.
// Best-effort: a full or read-only disk degrades the cache to
// memory-only rather than failing the simulation that produced the
// report. Callers run it after completing waiters — I/O must not delay
// them.
func (c *resultCache) spill(ctx context.Context, name string, enc Encoded, localOnly bool) {
	_ = c.store.Put(artifact.KindResult, name, enc.Bytes())
	if !localOnly {
		c.store.Share(ctx, artifact.KindResult, name, enc.Bytes())
	}
}

// len returns the number of in-memory entries.
func (c *resultCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem)
}
