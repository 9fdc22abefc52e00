package cluster

// A placement-comparison sweep — the workload of every score-based
// scheduler in the related work (paws' temporal-utilisation scorer, Mage's
// online candidate evaluation) — runs many fleets over one application
// population. Node contents recur massively across those fleets: the
// population is a small catalog of service templates at quantised load
// steps, so two placements (and two fleet sizes, and two fault plans) keep
// producing nodes whose simulations are bit-for-bit the same computation.
// Within a single cluster.Run the engine groups units into trajectories;
// across Runs every placement would re-simulate everything.
//
// NodeCache extends the collapse to the whole sweep: a concurrency-safe,
// sharded, bounded, content-addressed cache of *node trajectories*. The
// key is the trajectory key (phaseUnits): a bit-exact serialisation of
// every input a simulation reads — machine spec, the controller options
// that reach the simulation, RI, the engine tunables, a caller-supplied
// strategy identity digest, the blackout plan, the seed, and the
// application template list, floats encoded by their IEEE-754 bit
// patterns — and not the measurement window, which decides only where a
// record starts and stops (core.RunHorizons). The value holds the records
// of the windows one simulation cut: every window a Run asked of the
// trajectory and, when that Run had more than one phase, every prefix
// window [0,k) up to the longest one simulated. A fault plan cuts a
// surviving node's trajectory at its own phase boundaries, so another
// plan's Run mostly asks for prefixes of what an earlier one simulated.
//
// A Run whose windows the entry holds replays them: the records are a
// pure function of the trajectory, so output stays byte-identical by
// construction and only wall time changes. A Run that needs a window the
// entry lacks simulates the trajectory again, to its own longest window,
// and replaces the entry with the union of both record sets — the
// records are the same bits either way. Entries go through a
// single-flight protocol: the first goroutine to reach a key claims it
// and simulates; racers wait on the claim and then re-examine the entry.
// A waiter never holds a claim of its own (each shard publishes its claim
// before it looks at the next trajectory), so waits cannot form a cycle.
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
// stops accepting new trajectories and keeps its early entries (it still
// replaces an entry with a longer one). 8 shards x 1024 entries covers
// every unique node content a fleet sweep of tens of thousands of nodes
// produces over a quantised population.
const nodeCacheShardMaxEntries = 1 << 10

// NodeCache is a sweep-scoped, concurrency-safe, bounded cache of
// simulated node trajectories. The zero value is not usable; construct
// with NewNodeCache. See the package comment above for the contract.
type NodeCache struct {
	shards [nodeCacheShardCount]nodeCacheShard
}

type nodeCacheShard struct {
	mu      sync.Mutex
	entries map[string]*nodeCacheEntry // guarded by mu
}

// window is a measurement window of a trajectory: the measured epochs
// [warm, total), with the bounds core.RunHorizons derives from a unit's
// options (horizonEpochs). A record is a function of its trajectory and
// its window alone.
type window struct {
	warm, total int
}

// windowOut is one window's record.
type windowOut struct {
	win window
	out classOut
}

// trajRecords are the records one or more simulations of a trajectory
// cut, one per window. Immutable once published.
type trajRecords []windowOut

// get returns the record of window w, if cut.
func (r trajRecords) get(w window) (classOut, bool) {
	for i := range r {
		if r[i].win == w {
			return r[i].out, true
		}
	}
	return classOut{}, false
}

// covers reports whether r holds a record for every window of need.
func (r trajRecords) covers(need []window) bool {
	for _, w := range need {
		if _, ok := r.get(w); !ok {
			return false
		}
	}
	return true
}

// union returns r with every record of base whose window r lacks.
func (r trajRecords) union(base trajRecords) trajRecords {
	for _, b := range base {
		if _, ok := r.get(b.win); !ok {
			r = append(r, b)
		}
	}
	return r
}

// nodeCacheEntry is one trajectory entry, completed or in flight. The
// claiming goroutine writes recs exactly once and then closes done;
// everyone else waits on done before reading, so the field needs no lock.
// prev is the completed entry an in-flight one replaces (nil for a new
// trajectory): a failed simulation puts it back, so a completed entry in
// the cache always holds records.
type nodeCacheEntry struct {
	done chan struct{}
	recs trajRecords // guarded by done
	prev *nodeCacheEntry
}

// NewNodeCache returns an empty cache ready for concurrent use.
func NewNodeCache() *NodeCache {
	c := &NodeCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*nodeCacheEntry) //ahqlint:allow lockcheck construction precedes sharing; no other goroutine can hold the cache yet
	}
	return c
}

// cacheKey is a NodeCache content address together with the hash that
// routes it to a shard. The hash is computed once, while the key is built,
// from the key's seed and template components (keyHash), so acquire and
// publish never rehash the key's hundreds of bytes. Equal keys have equal
// components and therefore equal hashes, which is all routing needs; the
// shard never reaches output.
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

// completed reports whether the entry has been published.
func (e *nodeCacheEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// acquire resolves a trajectory that needs the windows need. When a
// completed entry holds every one of them it returns its records (a hit).
// Otherwise it claims the key — a new entry, or one that replaces a
// completed entry lacking some window — and returns the claim with the
// records it extends (nil for a new trajectory): the caller must simulate
// and publish, or racers would wait forever. A nil claim and nil records
// mean the shard was full: simulate without publishing. An entry in
// flight is waited on and then re-examined; the caller holds no claim
// while it waits.
//
//ahq:hotpath
func (c *NodeCache) acquire(key cacheKey, need []window) (hit trajRecords, claim *nodeCacheEntry, base trajRecords) {
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		e := s.entries[key.s]
		switch {
		case e == nil:
			if len(s.entries) >= nodeCacheShardMaxEntries {
				s.mu.Unlock()
				return nil, nil, nil
			}
			claim = &nodeCacheEntry{done: make(chan struct{})} //ahqlint:allow hotpath miss-path-only: one claim per trajectory simulated
			s.entries[key.s] = claim
			s.mu.Unlock()
			return nil, claim, nil
		case e.completed():
			if e.recs.covers(need) {
				s.mu.Unlock()
				return e.recs, nil, nil
			}
			claim = &nodeCacheEntry{done: make(chan struct{}), prev: e} //ahqlint:allow hotpath miss-path-only: one claim per trajectory simulated
			s.entries[key.s] = claim
			s.mu.Unlock()
			return nil, claim, e.recs
		}
		s.mu.Unlock()
		<-e.done
	}
}

// publish completes a claimed entry and wakes every waiter. A failed
// simulation is not cached: a published error would poison the
// content-address for the whole sweep, when the right behaviour is to let
// the trajectory be simulated again (the engine absorbs the failure into
// dead records either way, but a transient claimant bug must not become a
// sweep-wide fact). The claim leaves the shard and the entry it replaced,
// if any, comes back; the identity check keeps a racing re-claimant's
// fresh entry intact.
func (c *NodeCache) publish(key cacheKey, e *nodeCacheEntry, recs trajRecords, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if err != nil && s.entries[key.s] == e {
		if e.prev != nil {
			s.entries[key.s] = e.prev
		} else {
			delete(s.entries, key.s)
		}
	}
	e.recs, e.prev = recs, nil
	close(e.done)
	s.mu.Unlock()
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
