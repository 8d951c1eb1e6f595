package actor

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// System owns a set of actors: a registry of named actors, the event
// stream, dead-letter accounting and global defaults. One System per
// process is the expected deployment, mirroring one Akka ActorSystem per
// node in the paper's architecture.
//
// The named-actor registry is striped over a fixed array of shards
// (FNV-1a hash of the name selects the shard) so that spawn storms —
// one actor per new MMSI and per first-contact hexgrid cell — contend
// only within a shard instead of serialising system-wide on one mutex.
type System struct {
	nextID uint64

	shards [registryShards]registryShard

	events *EventStream
	stats  Stats

	// unregisterHook, when set, is invoked with every PID removed from
	// the named registry (stop, passivation or eager dead-entry removal).
	// Route caches keyed off registry names use it for invalidation. The
	// hook runs on the unregistering goroutine and must not block.
	unregisterHook atomic.Value // of func(*PID)

	shutdown int32
}

// registryShard is one stripe of the named-actor registry. Lookups stay
// lock-free through the shard's sync.Map; only spawns into the stripe
// take the shard mutex. The trailing pad keeps neighbouring shards off
// the same cache line under write-heavy spawn storms.
type registryShard struct {
	mu sync.Mutex
	m  sync.Map // name -> *PID
	_  [64]byte
}

// lookup returns the live PID registered under name in this shard.
// Entries whose actor has died are deleted eagerly so long-running
// systems with passivating cell actors don't accumulate tombstones
// between the death and the actor's own unregister. onUnregister (may
// be nil) fires when this lookup is the one that removes the entry, so
// external route caches observe every registry removal exactly once.
func (sh *registryShard) lookup(name string, onUnregister func(*PID)) *PID {
	v, ok := sh.m.Load(name)
	if !ok {
		return nil
	}
	pid := v.(*PID)
	if pid.Alive() {
		return pid
	}
	if sh.m.CompareAndDelete(name, pid) {
		if onUnregister != nil {
			onUnregister(pid)
		}
	}
	return nil
}

// registryShards spreads spawn contention well past the core counts of
// current hardware while keeping the per-system footprint trivial (a
// few KiB). It is a power of two, so a hash masks to a shard.
const registryShards = 64

// throughput is the number of messages an actor processes per
// scheduling run before yielding its goroutine.
const throughput = 300

// shardOf maps a name to its registry stripe (inlined FNV-1a).
func (s *System) shardOf(name string) *registryShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &s.shards[h&(registryShards-1)]
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
	return &System{events: NewEventStream()}
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

// Spawn starts a top-level actor with an auto-generated name.
func (s *System) Spawn(props *Props) *PID {
	pid := s.newProcess(props, "")
	pid.process.sendSystem(sysStarted{})
	return pid
}

// OnUnregister installs fn as the registry-removal hook: it is called
// with every PID leaving the named registry — explicit stop, poison,
// passivation or eager dead-entry cleanup — exactly once per removal.
// The pipeline points it at its route caches so a cached PID can never
// outlive its registration unnoticed. fn runs on whichever goroutine
// performs the removal and must be fast and non-blocking.
func (s *System) OnUnregister(fn func(pid *PID)) {
	s.unregisterHook.Store(fn)
}

// hook returns the installed unregister hook, or nil.
func (s *System) hook() func(*PID) {
	if v := s.unregisterHook.Load(); v != nil {
		return v.(func(*PID))
	}
	return nil
}

// QueuedMessages sums the user-mailbox depth of every registered named
// actor — the backlog still awaiting processing. Anonymous actors are
// not counted; quiescence checks pair this with the MessagesProcessed
// counter.
func (s *System) QueuedMessages() int64 {
	var total int64
	for i := range s.shards {
		s.shards[i].m.Range(func(_, v any) bool {
			total += v.(*PID).process.mb.Len()
			return true
		})
	}
	return total
}

// GetOrSpawn returns the live actor registered under name, spawning it
// from props when absent. The boolean reports whether a spawn happened.
// This is the primitive the pipeline uses to materialise vessel actors
// per MMSI and cell actors per hexgrid cell on first contact.
func (s *System) GetOrSpawn(name string, props *Props) (*PID, bool) {
	sh := s.shardOf(name)
	if pid := sh.lookup(name, s.hook()); pid != nil {
		return pid, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pid := sh.lookup(name, s.hook()); pid != nil {
		return pid, false
	}
	pid := s.newProcess(props, name)
	sh.m.Store(name, pid)
	pid.process.sendSystem(sysStarted{})
	return pid, true
}

// SpawnNamed starts a top-level actor registered under the given unique
// name; it fails if the name is taken.
func (s *System) SpawnNamed(props *Props, name string) (*PID, error) {
	if name == "" {
		return nil, fmt.Errorf("actor: empty name")
	}
	sh := s.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing := sh.lookup(name, s.hook()); existing != nil {
		return nil, fmt.Errorf("actor: name %q already registered", name)
	}
	pid := s.newProcess(props, name)
	sh.m.Store(name, pid)
	pid.process.sendSystem(sysStarted{})
	return pid, nil
}

func (s *System) newProcess(props *Props, name string) *PID {
	id := atomic.AddUint64(&s.nextID, 1)
	if name == "" {
		name = "$" + strconv.FormatUint(id, 10)
	}
	proc := &process{
		system: s,
		props:  props,
		mb:     newMailbox(),
		actor:  props.producer(),
		done:   make(chan struct{}),
	}
	pid := &PID{id: id, name: name, process: proc}
	proc.pid = pid
	atomic.AddUint64(&s.stats.ActorsSpawned, 1)
	return pid
}

func (s *System) unregister(pid *PID) {
	sh := s.shardOf(pid.name)
	// CompareAndDelete keeps a name-reusing respawn registered when an
	// eager lookup deletion or the respawn races this unregister; the
	// unregister hook fires only on the side that won the removal.
	if sh.m.CompareAndDelete(pid.name, pid) {
		if fn := s.hook(); fn != nil {
			fn(pid)
		}
	}
}

// Send delivers a fire-and-forget message with no sender.
func (s *System) Send(target *PID, msg any) {
	s.sendWithSender(target, msg, nil)
}

func (s *System) sendWithSender(target *PID, msg any, sender *PID) {
	if target == nil || target.process == nil {
		s.deadLetter(target, msg, sender)
		return
	}
	target.process.sendUser(envelope{message: msg, sender: sender})
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
		for _, msg := range msgs {
			s.deadLetter(target, msg, nil)
		}
		return
	}
	target.process.sendUserBatch(msgs, nil)
}

// Poison gracefully stops the target after every message already in
// its mailbox has been processed (Akka's PoisonPill semantics).
func (s *System) Poison(target *PID) {
	if target == nil || target.process == nil {
		return
	}
	target.process.sendUser(envelope{message: poisonPill{}})
}

// Stop asynchronously stops the target and its children.
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

func (s *System) deadLetter(target *PID, msg any, sender *PID) {
	atomic.AddUint64(&s.stats.DeadLetters, 1)
	s.events.Publish(DeadLetter{Target: target, Message: msg, Sender: sender, At: time.Now()})
}

// Shutdown stops all named actors and disables timers. Anonymous
// top-level actors not reachable from a named actor are left to drain.
func (s *System) Shutdown(timeout time.Duration) {
	atomic.StoreInt32(&s.shutdown, 1)
	var pids []*PID
	for i := range s.shards {
		s.shards[i].m.Range(func(_, v any) bool {
			pids = append(pids, v.(*PID))
			return true
		})
	}
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
