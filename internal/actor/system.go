package actor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// System owns a set of actors: the registry of entity-keyed actors,
// dead-letter accounting and global defaults. One System per process is
// the expected deployment, mirroring one Akka ActorSystem per node in
// the paper's architecture.
//
// The registry is the one directory from an entity to the actor that
// serves it. It holds one table per Kind, each striped over a fixed
// array of shards keyed by the bare entity id, so a warm lookup is one
// read-locked uint64 map read, and spawn storms — one actor per new
// MMSI and per first-contact hexgrid cell — contend only within a
// stripe instead of serialising system-wide on one mutex.
type System struct {
	nextID uint64

	tables [Kinds][registryShards]registryShard

	stats Stats

	shutdown int32
}

// registryShard is one stripe of a registry table. Lookups take the
// read lock; only spawns and unregisters take the write lock. The
// trailing pad keeps neighbouring stripes off the same cache line under
// write-heavy spawn storms.
type registryShard struct {
	mu sync.RWMutex
	m  map[uint64]*PID // entity id -> PID; nil until the first spawn
	_  [32]byte
}

// registryShards spreads spawn contention well past the core counts of
// current hardware while keeping the per-system footprint small (a few
// KiB per table). It is a power of two, so a hash masks to a stripe.
const registryShards = 64

// throughput is the number of messages an actor processes per
// scheduling run before yielding its goroutine.
const throughput = 300

// mix64 is the splitmix64 finaliser. Entity ids are dense (sequential
// MMSI blocks, neighbouring cells), so their raw low bits would pile
// onto a few stripes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// shardOf maps a key to its registry stripe. A Kind without a table is
// a programming error and panics rather than aliasing another table.
func (s *System) shardOf(k Key) *registryShard {
	if k.Kind >= Kinds {
		panic(fmt.Sprintf("actor: key kind %d out of range (Kinds = %d)", k.Kind, Kinds))
	}
	return &s.tables[k.Kind][mix64(k.ID)&(registryShards-1)]
}

// Stats aggregates system-level counters. All fields are read with
// atomic loads via Snapshot.
type Stats struct {
	ActorsSpawned     uint64
	ActorsStopped     uint64
	MessagesProcessed uint64
	DeadLetters       uint64
	Failures          uint64
	Restarts          uint64
}

// NewSystem creates an actor system. The name labels the system for
// its caller; the runtime does not read it.
func NewSystem(name string) *System {
	return &System{}
}

// StatsSnapshot returns a consistent-enough copy of the counters.
func (s *System) StatsSnapshot() Stats {
	return Stats{
		ActorsSpawned:     atomic.LoadUint64(&s.stats.ActorsSpawned),
		ActorsStopped:     atomic.LoadUint64(&s.stats.ActorsStopped),
		MessagesProcessed: atomic.LoadUint64(&s.stats.MessagesProcessed),
		DeadLetters:       atomic.LoadUint64(&s.stats.DeadLetters),
		Failures:          atomic.LoadUint64(&s.stats.Failures),
		Restarts:          atomic.LoadUint64(&s.stats.Restarts),
	}
}

// LiveActors returns the number of currently running actors.
func (s *System) LiveActors() int64 {
	snap := s.StatsSnapshot()
	return int64(snap.ActorsSpawned) - int64(snap.ActorsStopped)
}

// Spawn starts an anonymous actor: it is in no registry table.
func (s *System) Spawn(props *Props) *PID {
	pid := s.newProcess(props, Key{Kind: anonymous, ID: atomic.AddUint64(&s.nextID, 1)})
	pid.process.sendSystem(sysStarted{})
	return pid
}

// QueuedMessages sums the user-mailbox depth of every registered actor
// — the backlog still awaiting processing. Anonymous actors are not
// counted; quiescence checks pair this with the MessagesProcessed
// counter. It allocates nothing, so it can be sampled often.
func (s *System) QueuedMessages() int64 {
	var total int64
	for k := range s.tables {
		for i := range s.tables[k] {
			sh := &s.tables[k][i]
			sh.mu.RLock()
			for _, pid := range sh.m {
				total += pid.process.mb.Len()
			}
			sh.mu.RUnlock()
		}
	}
	return total
}

// Each calls fn for every registered actor. Each stripe is snapshotted
// under its read lock and fn runs with no lock held, so fn may stop or
// spawn actors; one registered or removed during the walk may or may
// not be seen.
func (s *System) Each(fn func(Key, *PID)) {
	var buf []*PID
	for k := range s.tables {
		for i := range s.tables[k] {
			sh := &s.tables[k][i]
			sh.mu.RLock()
			buf = buf[:0]
			for _, pid := range sh.m {
				buf = append(buf, pid)
			}
			sh.mu.RUnlock()
			for _, pid := range buf {
				fn(pid.key, pid)
			}
		}
	}
}

// GetOrSpawn returns the live actor registered under key, spawning it
// from props when absent or dead. The boolean reports whether a spawn
// happened. This is the primitive the pipeline uses to materialise
// vessel actors per MMSI and cell actors per hexgrid cell on first
// contact; a warm call is one read-locked map read and a liveness
// check, and allocates nothing.
func (s *System) GetOrSpawn(key Key, props *Props) (*PID, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	pid := sh.m[key.ID]
	sh.mu.RUnlock()
	if pid.Alive() {
		return pid, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pid := sh.m[key.ID]; pid.Alive() {
		return pid, false
	}
	if sh.m == nil {
		sh.m = make(map[uint64]*PID)
	}
	pid = s.newProcess(props, key)
	sh.m[key.ID] = pid // replaces a dead entry whose unregister is still to run
	pid.process.sendSystem(sysStarted{})
	return pid, true
}

func (s *System) newProcess(props *Props, key Key) *PID {
	proc := &process{
		system: s,
		props:  props,
		mb:     newMailbox(),
		actor:  props.producer(key),
		done:   make(chan struct{}),
	}
	pid := &PID{key: key, process: proc}
	proc.pid = pid
	atomic.AddUint64(&s.stats.ActorsSpawned, 1)
	return pid
}

// unregister removes pid from its table if the entry still holds it: a
// respawn under the same key that replaced the dead entry stays
// registered.
func (s *System) unregister(pid *PID) {
	if pid.key.Kind == anonymous {
		return
	}
	sh := s.shardOf(pid.key)
	sh.mu.Lock()
	if sh.m[pid.key.ID] == pid {
		delete(sh.m, pid.key.ID)
	}
	sh.mu.Unlock()
}

// Send delivers a fire-and-forget message.
func (s *System) Send(target *PID, msg any) {
	if target == nil || target.process == nil {
		s.deadLetters(1)
		return
	}
	target.process.sendUser(msg)
}

// SendBatch delivers msgs to target in order, paying the mailbox lock
// and the scheduler handoff once for the whole batch instead of once
// per message. Ingestion uses it to deliver a poll round's reports
// grouped by vessel. A nil or stopped target dead-letters every
// message, matching Send.
func (s *System) SendBatch(target *PID, msgs []any) {
	if len(msgs) == 0 {
		return
	}
	if target == nil || target.process == nil {
		s.deadLetters(len(msgs))
		return
	}
	target.process.sendUserBatch(msgs)
}

// Poison gracefully stops the target after every message already in
// its mailbox has been processed (Akka's PoisonPill semantics).
func (s *System) Poison(target *PID) {
	if target == nil || target.process == nil {
		return
	}
	target.process.sendUser(poisonPill{})
}

// Stop asynchronously stops the target.
func (s *System) Stop(target *PID) {
	if target == nil || target.process == nil {
		return
	}
	target.process.sendSystem(sysStop{})
}

// SendAfter schedules msg for delivery to target after delay.
func (s *System) SendAfter(delay time.Duration, target *PID, msg any) *time.Timer {
	return time.AfterFunc(delay, func() {
		if atomic.LoadInt32(&s.shutdown) == 1 {
			return
		}
		s.Send(target, msg)
	})
}

// deadLetters counts n messages that could not be delivered.
func (s *System) deadLetters(n int) {
	atomic.AddUint64(&s.stats.DeadLetters, uint64(n))
}

// Shutdown stops all registered actors and disables timers. Anonymous
// actors are left to drain.
func (s *System) Shutdown(timeout time.Duration) {
	atomic.StoreInt32(&s.shutdown, 1)
	var pids []*PID
	s.Each(func(_ Key, pid *PID) { pids = append(pids, pid) })
	deadline := time.Now().Add(timeout)
	for _, pid := range pids {
		s.Stop(pid)
	}
	for _, pid := range pids {
		remain := time.Until(deadline)
		if remain <= 0 {
			return
		}
		select {
		case <-pid.process.done:
		case <-time.After(remain):
			return
		}
	}
}
