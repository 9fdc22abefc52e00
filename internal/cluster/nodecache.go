package cluster

// A placement-comparison sweep — the workload of every score-based
// scheduler in the related work (paws' temporal-utilisation scorer, Mage's
// online candidate evaluation) — runs many fleets over one application
// population. Node contents recur massively across those fleets: the
// population is a small catalog of service templates at quantised load
// steps, so two placements (and two fleet sizes) keep producing nodes
// whose simulations are bit-for-bit the same computation. Within a single
// cluster.Run the engine groups units with equal content keys; across Runs
// every placement would re-simulate everything.
//
// NodeCache extends the collapse to the whole sweep: a concurrency-safe,
// sharded, bounded, content-addressed cache of *completed unit
// simulations*. The key is a bit-exact serialisation of every input a
// unit simulation reads — machine spec, core.Options, RI, the engine
// tunables, a caller-supplied strategy identity digest, the blackout plan,
// the seed, and the application template list, floats encoded by their
// IEEE-754 bit patterns (phaseUnits) — and the value is the unit's
// classOut (summary template plus entropy samples). A hit
// therefore replays the exact record the identical computation produced
// elsewhere, and output stays byte-identical by construction; only wall
// time changes. Entries are published through a single-flight protocol:
// the first goroutine to reach a key claims it and simulates, racers wait
// on the entry's done channel instead of duplicating the work.
//
// The strategy digest is the one key component the engine cannot derive
// itself: Config.NewStrategy is an opaque factory, so the caller must
// declare what it builds (Config.StrategyDigest) and Run refuses a
// NodeCache without one. Two sweeps sharing a cache across different
// strategies must use distinct digests or they would adopt each other's
// records.

import (
	"bytes"
	"slices"
	"sync"

	"ahq/internal/sim"
)

// nodeCacheShardCount keeps parallel shard workers from serialising on one
// lock; a small power of two keeps the shard pick free.
const nodeCacheShardCount = 8

// nodeCacheShardMaxEntries bounds each shard. The bound exists to cap
// memory under adversarial key diversity, not to evict: a full shard
// stops accepting inserts and keeps its early entries. 8 shards x 1024
// entries covers every unique node content a fleet sweep of tens of
// thousands of nodes produces over a quantised population.
const nodeCacheShardMaxEntries = 1 << 10

// NodeCache is a sweep-scoped, concurrency-safe, bounded cache of
// completed node simulations. The zero value is not usable; construct
// with NewNodeCache. See the package comment above for the contract.
type NodeCache struct {
	shards [nodeCacheShardCount]nodeCacheShard
}

type nodeCacheShard struct {
	mu      sync.Mutex
	entries map[string]*nodeCacheEntry // guarded by mu
	hits    uint64                     // guarded by mu
	misses  uint64                     // guarded by mu
	full    uint64                     // guarded by mu
}

// nodeCacheEntry is one cached (or in-flight) node simulation. The
// claiming goroutine writes out/err exactly once and then closes done;
// everyone else waits on done before reading, so the fields need no lock.
type nodeCacheEntry struct {
	done chan struct{}
	out  classOut // guarded by done
	err  error    // guarded by done
}

// NodeCacheStats counts cache traffic. Hits and misses depend only on the
// sequence of Run invocations sharing the cache, but with racing callers
// the split between a hit and a single-flight wait depends on scheduling —
// so, like FleetStats, the counters are for logs and benchmarks, never for
// deterministic output.
type NodeCacheStats struct {
	// Hits counts lookups that found an entry (completed or in flight).
	Hits uint64
	// Misses counts claims: lookups that went on to simulate and publish.
	Misses uint64
	// Full counts lookups that found no entry and could not claim one
	// because the shard was at capacity; the caller simulated without
	// publishing.
	Full uint64
}

// NewNodeCache returns an empty cache ready for concurrent use.
func NewNodeCache() *NodeCache {
	c := &NodeCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*nodeCacheEntry) //ahqlint:allow lockcheck construction precedes sharing; no other goroutine can hold the cache yet
	}
	return c
}

// Len reports the number of cached node simulations, including in-flight
// claims (for tests and telemetry).
func (c *NodeCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the accumulated counters.
func (c *NodeCache) Stats() NodeCacheStats {
	var st NodeCacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Full += s.full
		s.mu.Unlock()
	}
	return st
}

// cacheKey is a NodeCache content address together with the hash that
// routes it to a shard. The hash is computed once, while the key is built,
// from the key's seed and template components (keyHash), so lookup, claim
// and publish never rehash the key's hundreds of bytes. Equal keys have
// equal components and therefore equal hashes, which is all routing needs;
// the shard never reaches output.
type cacheKey struct {
	s    string
	hash uint64
}

// shardFor picks the key's shard.
func (c *NodeCache) shardFor(k cacheKey) *nodeCacheShard {
	return &c.shards[k.hash%nodeCacheShardCount]
}

// fnv1a is the 64-bit FNV-1a hash of b.
func fnv1a[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// keyHash derives a key's shard hash from its seed and the FNV-1a hash of
// its template serialisation, with a murmur3 finaliser so every bit of the
// result depends on both.
func keyHash(seed int64, templateHash uint64) uint64 {
	h := templateHash ^ uint64(seed)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// lookup returns the entry under key, if any — completed or in flight; the
// caller waits on entry.done before reading. The fast path of every cached
// node in a warm sweep.
//
//ahq:hotpath
func (c *NodeCache) lookup(key cacheKey) (*nodeCacheEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key.s]
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return e, ok
}

// claim inserts an in-flight entry under key and returns it with
// claimed=true: the caller must simulate and publish via complete, or
// racers waiting on the entry would block forever. When a racer claimed
// the key first the existing entry is returned with claimed=false (wait on
// it like a lookup hit), and when the shard is full claim returns
// (nil, false): simulate without publishing.
func (c *NodeCache) claim(key cacheKey) (e *nodeCacheEntry, claimed bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key.s]; ok {
		s.hits++
		s.mu.Unlock()
		return e, false
	}
	if len(s.entries) >= nodeCacheShardMaxEntries {
		s.full++
		s.mu.Unlock()
		return nil, false
	}
	e = &nodeCacheEntry{done: make(chan struct{})}
	s.entries[key.s] = e
	s.misses++
	s.mu.Unlock()
	return e, true
}

// complete publishes a claimed entry's simulation outcome and wakes every
// waiter.
func (e *nodeCacheEntry) complete(out classOut, err error) {
	e.out, e.err = out, err
	close(e.done)
}

// publish completes a claimed entry and, when the simulation errored,
// drops the entry from its shard after the waiters are released. Errors
// must not be cached: a permanently published error would poison the
// content-address for the whole sweep, replaying the failure as a hit on
// every later lookup, when the right behaviour is to let the class be
// re-simulated (the engine absorbs the failure into a dead record either
// way, but a transient claimant bug must not become a sweep-wide fact).
// The identity check keeps a racing re-claimant's fresh entry intact.
func (c *NodeCache) publish(key cacheKey, e *nodeCacheEntry, out classOut, err error) {
	e.complete(out, err)
	if err == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if s.entries[key.s] == e {
		delete(s.entries, key.s)
	}
	s.mu.Unlock()
}

// wait blocks until the entry is published and returns its outcome.
func (e *nodeCacheEntry) wait() (classOut, error) {
	<-e.done
	return e.out, e.err
}

// orderedTemplate serialises a node's applications once and returns them
// with their template key: the application count, then every
// application's key, floats as IEEE-754 bit patterns. With canonical set
// the applications come back in canonical order (see CanonicalOrder),
// otherwise as given. The key is nil when some application is not
// key-serialisable (a load profile outside trace's catalog); such units
// are simulated uncached and never grouped with any other unit.
func orderedTemplate(apps []sim.AppConfig, canonical bool) ([]sim.AppConfig, []byte) {
	type keyed struct {
		app sim.AppConfig
		key []byte // this application's bytes of b
	}
	b := sim.AppendKeyInt(make([]byte, 0, 96*len(apps)), len(apps))
	head, ok := len(b), true
	ks := make([]keyed, len(apps))
	for i, a := range apps {
		lo := len(b)
		var aok bool
		if b, aok = sim.AppendAppKey(b, a); !aok {
			// Unserialisable apps sort after serialisable ones, by name.
			b, ok = append(append(b[:lo], 0xff), a.Name()...), false
		}
		ks[i] = keyed{a, b[lo:]}
	}
	byKey := func(x, y keyed) int { return bytes.Compare(x.key, y.key) }
	if canonical && !slices.IsSortedFunc(ks, byKey) {
		slices.SortStableFunc(ks, byKey)
		apps = make([]sim.AppConfig, len(ks))
		sorted := append(make([]byte, 0, len(b)), b[:head]...)
		for i, k := range ks {
			apps[i] = k.app
			sorted = append(sorted, k.key...)
		}
		b = sorted
	}
	if !ok {
		return apps, nil
	}
	return apps, b
}

// templateSeed derives a node seed from the node's applications and their
// template key k (nil when not key-serialisable): equal templates get
// equal seeds, which is the common-random-numbers policy screening sweeps
// want and the engine's default — identical node contents become
// identical simulations, so Run groups them and a NodeCache replays them
// across Runs. The base seed perturbs the whole assignment, so distinct
// sweeps stay independent. Templates that are not key-serialisable fall
// back to a name-signature hash: still deterministic and still CRN across
// equal-looking nodes, merely coarser (seeds may coincide across templates
// that differ only in unserialisable state, which is harmless — such
// units are never grouped).
func templateSeed(base int64, apps []sim.AppConfig, k []byte) int64 {
	h := uint64(14695981039346656037)
	mix := func(bs []byte) {
		for _, c := range bs {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var seedBuf [8]byte
	for i := 0; i < 8; i++ {
		seedBuf[i] = byte(uint64(base) >> (8 * i))
	}
	mix(seedBuf[:])
	if k != nil {
		mix(k)
	} else {
		for _, a := range apps {
			mix([]byte(a.Name()))
			mix([]byte{';'})
		}
	}
	return int64(h)
}

// CanonicalOrder returns the node's applications sorted into a canonical
// order (by their serialised template keys, name-tagged fallback for
// unserialisable apps, input order as the final tiebreak). Placement
// strategies emit the same node content in whatever order their internals
// happened to append it; a sweep that canonicalises each node before
// simulating makes "same multiset of applications" mean "same simulation",
// which is what lets Run's grouping and the NodeCache recognise
// recurrences across placements (Run applies it to every node under the
// default seed policy). The input slice is not modified, and is returned
// as is when already canonical.
func CanonicalOrder(apps []sim.AppConfig) []sim.AppConfig {
	if len(apps) < 2 {
		return apps
	}
	out, _ := orderedTemplate(apps, true)
	return out
}

// CanonicalizePlacement applies CanonicalOrder to every node of a
// placement, returning a new outer slice (shared inner slices when a node
// was already canonical).
func CanonicalizePlacement(placement [][]sim.AppConfig) [][]sim.AppConfig {
	out := make([][]sim.AppConfig, len(placement))
	for i, apps := range placement {
		out[i] = CanonicalOrder(apps)
	}
	return out
}
