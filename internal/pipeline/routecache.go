package pipeline

import (
	"strconv"
	"strings"
	"sync"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/hexgrid"
)

// routeCache maps an integer entity key (MMSI or hexgrid cell) straight
// to its actor PID, so the per-report hot path skips both the
// "v-"+strconv name building and the registry's string hashing. It is
// sharded like the registry so parallel ingestion workers only contend
// when their keys land on the same stripe.
//
// Correctness model: the cache is a hint, never an authority. A hit is
// only used after a PID liveness check, and a miss (or a dead hit)
// falls back to the registry's GetOrSpawn, which re-populates the
// cache. Entries are invalidated through the actor system's unregister
// hook (death, passivation, eager dead-entry cleanup), with
// compare-and-delete semantics so an invalidation can never remove a
// newer PID cached under the same key. A stale dead PID can therefore
// survive in the cache only transiently and is screened out on every
// read — a passivated actor is never resurrected through the cache.
type routeCache struct {
	shards [routeShardCount]routeShard
}

// routeShardCount stripes the cache (power of two). 64 matches the
// registry's stripe count.
const routeShardCount = 64

type routeShard struct {
	mu sync.RWMutex
	m  map[uint64]*actor.PID
	_  [40]byte // keep neighbouring shards off one cache line
}

func newRouteCache() *routeCache {
	c := &routeCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*actor.PID)
	}
	return c
}

// mix64 is the splitmix64 finaliser: route keys are dense (sequential
// MMSI blocks, neighbouring cells), so the raw low bits would pile onto
// a few shards.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (c *routeCache) shardOf(key uint64) *routeShard {
	return &c.shards[mix64(key)&(routeShardCount-1)]
}

// get returns the cached PID for key if it is still alive. Dead hits
// return nil so the caller takes the slow path; the stale entry is left
// for the unregister hook (or the next put) to clear.
func (c *routeCache) get(key uint64) *actor.PID {
	sh := c.shardOf(key)
	sh.mu.RLock()
	pid := sh.m[key]
	sh.mu.RUnlock()
	if pid.Alive() {
		return pid
	}
	return nil
}

// put caches pid under key. If the actor died before the entry landed
// (its unregister hook may already have run and found nothing to
// delete), the entry is removed again so a dead PID is never left
// looking authoritative.
func (c *routeCache) put(key uint64, pid *actor.PID) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	sh.m[key] = pid
	sh.mu.Unlock()
	if !pid.Alive() {
		c.invalidate(key, pid)
	}
}

// invalidate removes the entry for key iff it still holds pid
// (compare-and-delete): an unregister racing a respawn must not evict
// the successor's fresh entry.
func (c *routeCache) invalidate(key uint64, pid *actor.PID) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if sh.m[key] == pid {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// forEach calls fn for every cached route. Entries are snapshotted per
// shard first so fn runs without any cache lock held (fn may trigger
// actor stops whose unregister hooks re-enter the cache).
func (c *routeCache) forEach(fn func(key uint64, pid *actor.PID)) {
	type entry struct {
		key uint64
		pid *actor.PID
	}
	var buf []entry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		buf = buf[:0]
		for k, pid := range sh.m {
			buf = append(buf, entry{k, pid})
		}
		sh.mu.RUnlock()
		for _, e := range buf {
			fn(e.key, e.pid)
		}
	}
}

// Actor-name prefixes of the routed actor families. The unregister hook
// parses keys back out of registry names: cold path, runs once per
// actor death.
const (
	vesselNamePrefix    = "v-"
	proximityNamePrefix = "px-"
	collisionNamePrefix = "cx-"
)

// vesselActorName renders the registry name of a vessel actor.
func vesselActorName(mmsi ais.MMSI) string {
	return vesselNamePrefix + strconv.FormatUint(uint64(mmsi), 10)
}

// proximityActorName renders the registry name of a proximity cell actor.
func proximityActorName(cell hexgrid.Cell) string {
	return proximityNamePrefix + strconv.FormatUint(uint64(cell), 16)
}

// collisionActorName renders the registry name of a collision cell actor.
func collisionActorName(cell hexgrid.Cell) string {
	return collisionNamePrefix + strconv.FormatUint(uint64(cell), 16)
}

// onActorUnregistered is installed as the actor system's unregister
// hook: every PID leaving the named registry — stop, passivation,
// supervision escalation or eager dead-entry cleanup — drops its route
// cache entry, keyed back out of the registry name.
func (p *Pipeline) onActorUnregistered(pid *actor.PID) {
	name := pid.Name()
	switch {
	case strings.HasPrefix(name, vesselNamePrefix):
		if mmsi, err := strconv.ParseUint(name[len(vesselNamePrefix):], 10, 64); err == nil {
			p.vesselRoutes.invalidate(mmsi, pid)
		}
	case strings.HasPrefix(name, proximityNamePrefix):
		if cell, err := strconv.ParseUint(name[len(proximityNamePrefix):], 16, 64); err == nil {
			p.proximityRoutes.invalidate(cell, pid)
		}
	case strings.HasPrefix(name, collisionNamePrefix):
		if cell, err := strconv.ParseUint(name[len(collisionNamePrefix):], 16, 64); err == nil {
			p.collisionRoutes.invalidate(cell, pid)
		}
	}
}
