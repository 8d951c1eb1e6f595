// Package broker implements an embedded, partitioned, append-only log
// broker in the spirit of the Kafka deployment the paper's ingestion
// layer consumes from: named topics split into partitions, producers
// that hash records by key onto partitions, and consumer groups with
// committed offsets giving at-least-once delivery.
//
// The broker is in-process: the pipeline's ingestion actors consume from
// it exactly as they would from a networked Kafka cluster, and the
// fleet simulator plays the role of the AIS receiver network producing
// into it. Offsets, lag accounting and group rebalancing behave like
// their Kafka counterparts so the ingestion code exercises the same
// control flow. Topics are in-memory by default; a broker opened with
// OpenDir additionally persists every record to per-partition segment
// files and checkpoints committed offsets, surviving restarts with
// at-least-once delivery (see persist.go).
package broker

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Record is one message stored in a partition log.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       string
	Value     any
	Timestamp time.Time
}

// partition is a single append-only log with absolute offsets that
// survive head truncation (retention).
type partition struct {
	mu      sync.Mutex
	base    int64 // offset of records[0]
	records []Record
	// disk, when non-nil, receives every appended record (durable
	// brokers opened with OpenDir).
	disk *segmentWriter
}

func newPartition() *partition {
	return &partition{}
}

func (p *partition) append(r Record) (int64, error) {
	p.mu.Lock()
	r.Offset = p.base + int64(len(p.records))
	p.records = append(p.records, r)
	disk := p.disk
	p.mu.Unlock()
	if disk != nil {
		if err := disk.append(r); err != nil {
			return r.Offset, fmt.Errorf("broker: segment append: %w", err)
		}
	}
	return r.Offset, nil
}

// read returns up to max records starting at offset. Offsets below the
// retention head are snapped forward to the head (like Kafka's
// auto.offset.reset=earliest after truncation).
func (p *partition) read(offset int64, max int) []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < p.base {
		offset = p.base
	}
	idx := offset - p.base
	if idx >= int64(len(p.records)) {
		return nil
	}
	end := idx + int64(max)
	if end > int64(len(p.records)) {
		end = int64(len(p.records))
	}
	out := make([]Record, end-idx)
	copy(out, p.records[idx:end])
	return out
}

func (p *partition) end() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base + int64(len(p.records))
}

// truncate drops records so that at most keep remain.
func (p *partition) truncate(keep int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if excess := len(p.records) - keep; excess > 0 {
		p.base += int64(excess)
		p.records = append(p.records[:0:0], p.records[excess:]...)
	}
}

// head returns the retention head: the offset of the oldest retained
// record (== end when the partition is empty).
func (p *partition) head() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// topic is a set of partitions plus the consumer groups reading it.
type topic struct {
	name       string
	partitions []*partition
	broker     *Broker

	groupMu sync.Mutex
	groups  map[string]*group

	// wake is the close-and-replace broadcast channel blocking Polls
	// wait on: broadcast closes the current channel (waking every
	// waiter) and installs a fresh one for the next round.
	wakeMu sync.Mutex
	wake   chan struct{}
}

// wakeCh returns the channel the next broadcast will close. A waiter
// must capture it BEFORE checking for data: an append that lands
// between the check and the wait then closes the already-captured
// channel, so the wakeup cannot be lost.
func (t *topic) wakeCh() <-chan struct{} {
	t.wakeMu.Lock()
	defer t.wakeMu.Unlock()
	return t.wake
}

// broadcast wakes every Poll blocked on the topic (new data, or a
// membership change that may have handed a waiter new partitions).
func (t *topic) broadcast() {
	t.wakeMu.Lock()
	close(t.wake)
	t.wake = make(chan struct{})
	t.wakeMu.Unlock()
}

// group tracks committed offsets and membership for one consumer group
// on one topic.
type group struct {
	mu        sync.Mutex
	committed []int64     // per partition
	members   []*Consumer // sorted by id for deterministic assignment
	nextID    int
}

// Broker owns topics. All methods are safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*topic
	// dir is the durable root when the broker was opened with OpenDir
	// ("" = in-memory only).
	dir string
}

// New creates an empty broker.
func New() *Broker {
	return &Broker{topics: make(map[string]*topic)}
}

// CreateTopic declares a topic with the given partition count. Creating
// an existing topic with the same partition count is a no-op.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("broker: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("broker: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{name: name, groups: make(map[string]*group), broker: b, wake: make(chan struct{})}
	for i := 0; i < partitions; i++ {
		t.partitions = append(t.partitions, newPartition())
	}
	if b.dir != "" {
		if err := b.attachSegments(t); err != nil {
			return err
		}
	}
	b.topics[name] = t
	return nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	t, ok := b.topics[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("broker: unknown topic %q", name)
	}
	return t, nil
}

// Produce appends a record keyed by key; records with the same key land
// on the same partition, preserving per-key order (per-vessel order for
// MMSI-keyed AIS streams).
func (b *Broker) Produce(topicName, key string, value any) (partitionIdx int, offset int64, err error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	partitionIdx = partitionFor(key, len(t.partitions))
	offset, err = t.partitions[partitionIdx].append(Record{
		Topic:     topicName,
		Partition: partitionIdx,
		Key:       key,
		Value:     value,
		Timestamp: time.Now(),
	})
	// Even a failed segment write leaves the record readable in memory,
	// so waiters are woken unconditionally.
	t.broadcast()
	return partitionIdx, offset, err
}

func partitionFor(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Truncate enforces a per-partition retention of keep records.
//
// Committed offsets that the truncation leaves behind the new retention
// heads are snapped forward to them, mirroring what reads already do
// (auto.offset.reset=earliest): without the snap, a group that was
// lagging past the dropped records would report the unreadable gap as
// lag forever. A consumer that polled records before the truncation and
// commits afterwards still wins — its position is past the new head, so
// the usual only-advance commit rule applies.
func (b *Broker) Truncate(topicName string, keep int) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	heads := make([]int64, len(t.partitions))
	for i, p := range t.partitions {
		p.truncate(keep)
		heads[i] = p.head()
	}
	t.groupMu.Lock()
	groups := make([]*group, 0, len(t.groups))
	for _, g := range t.groups {
		groups = append(groups, g)
	}
	t.groupMu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		for pi, head := range heads {
			if g.committed[pi] < head {
				g.committed[pi] = head
			}
		}
		g.mu.Unlock()
	}
	return nil
}

// Lag returns, per partition, how far the group's committed offsets
// trail the log ends.
func (b *Broker) Lag(topicName, groupName string) ([]int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	g := t.ensureGroup(groupName)
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int64, len(t.partitions))
	for i, p := range t.partitions {
		// Clamp: a commit racing a concurrent truncate-and-append cycle
		// can transiently observe committed > end; lag is never negative.
		if d := p.end() - g.committed[i]; d > 0 {
			out[i] = d
		}
	}
	return out, nil
}

// GroupLag is one consumer group's total lag on one topic, summed over
// partitions.
type GroupLag struct {
	Topic string
	Group string
	Lag   int64
}

// GroupLags snapshots the lag of every consumer group on every topic,
// sorted by topic then group — the feed for the seatwin_broker_lag
// gauge. Only groups that have subscribed or committed appear.
func (b *Broker) GroupLags() []GroupLag {
	b.mu.RLock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()

	var out []GroupLag
	for _, t := range topics {
		t.groupMu.Lock()
		names := make([]string, 0, len(t.groups))
		for name := range t.groups {
			names = append(names, name)
		}
		groups := make([]*group, 0, len(names))
		sort.Strings(names)
		for _, name := range names {
			groups = append(groups, t.groups[name])
		}
		t.groupMu.Unlock()
		for i, g := range groups {
			g.mu.Lock()
			var total int64
			for pi, p := range t.partitions {
				// Same clamp as Lag: transient committed-past-end reads
				// must not produce a negative gauge.
				if d := p.end() - g.committed[pi]; d > 0 {
					total += d
				}
			}
			g.mu.Unlock()
			out = append(out, GroupLag{Topic: t.name, Group: names[i], Lag: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topic != out[j].Topic {
			return out[i].Topic < out[j].Topic
		}
		return out[i].Group < out[j].Group
	})
	return out
}

func (t *topic) ensureGroup(name string) *group {
	t.groupMu.Lock()
	defer t.groupMu.Unlock()
	g, ok := t.groups[name]
	if !ok {
		g = &group{committed: make([]int64, len(t.partitions))}
		t.groups[name] = g
	}
	return g
}

// Consumer reads one topic as a member of a consumer group. A consumer
// is not safe for concurrent use by multiple goroutines (same as a
// Kafka consumer); spawn one per goroutine.
type Consumer struct {
	id        int
	topic     *topic
	group     *group
	groupName string

	assigned  []int
	positions map[int]int64 // in-flight read positions per partition
	closed    bool
	closeCh   chan struct{} // closed by Close, unblocking a waiting Poll
	mu        sync.Mutex
}

// Subscribe joins the consumer group on the topic, triggering a
// rebalance that spreads partitions round-robin over members.
func (b *Broker) Subscribe(topicName, groupName string) (*Consumer, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	g := t.ensureGroup(groupName)
	g.mu.Lock()
	defer g.mu.Unlock()
	c := &Consumer{
		id:        g.nextID,
		topic:     t,
		group:     g,
		groupName: groupName,
		positions: make(map[int]int64),
		closeCh:   make(chan struct{}),
	}
	g.nextID++
	g.members = append(g.members, c)
	g.rebalanceLocked(len(t.partitions))
	// Wake blocked members: the rebalance may have handed them
	// partitions that already hold data.
	t.broadcast()
	return c, nil
}

// rebalanceLocked reassigns partitions round-robin across members.
// Callers hold g.mu; member state is mutated under each member's own
// mutex (lock order: group then member, and no other path holds both).
func (g *group) rebalanceLocked(numPartitions int) {
	sort.Slice(g.members, func(i, j int) bool { return g.members[i].id < g.members[j].id })
	assignments := make([][]int, len(g.members))
	for p := 0; p < numPartitions && len(g.members) > 0; p++ {
		i := p % len(g.members)
		assignments[i] = append(assignments[i], p)
	}
	for i, m := range g.members {
		m.mu.Lock()
		m.assigned = assignments[i]
		// Drop in-flight positions: after a rebalance every member
		// resumes from the committed offsets (at-least-once redelivery).
		m.positions = make(map[int]int64)
		m.mu.Unlock()
	}
}

// Poll returns up to max records from the consumer's assigned
// partitions, waiting up to wait for data. It advances the in-flight
// position but not the committed offset; call Commit after processing.
//
// An empty poll blocks on the topic's broadcast channel — no sleeping
// or spinning — and wakes on the next Produce, on a group membership
// change, or when Close unblocks it. The wake channel is captured
// before the data check, so an append racing the wait is never missed.
func (c *Consumer) Poll(max int, wait time.Duration) []Record {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		wake := c.topic.wakeCh()
		if recs := c.pollOnce(max); len(recs) > 0 {
			return recs
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil
		}
		select {
		case <-wake:
		case <-timer.C:
			return nil
		case <-c.closeCh:
			return nil
		}
	}
}

func (c *Consumer) pollOnce(max int) []Record {
	c.mu.Lock()
	assigned := append([]int(nil), c.assigned...)
	c.mu.Unlock()

	var out []Record
	for _, pi := range assigned {
		if len(out) >= max {
			break
		}
		c.mu.Lock()
		pos, ok := c.positions[pi]
		c.mu.Unlock()
		if !ok {
			c.group.mu.Lock()
			pos = c.group.committed[pi]
			c.group.mu.Unlock()
		}

		recs := c.topic.partitions[pi].read(pos, max-len(out))
		if len(recs) == 0 {
			continue
		}
		out = append(out, recs...)
		c.mu.Lock()
		c.positions[pi] = recs[len(recs)-1].Offset + 1
		c.mu.Unlock()
	}
	return out
}

// Commit marks everything returned by prior Polls as processed,
// advancing the group's committed offsets. The consumer and group
// mutexes are never held together here (the rebalance path owns that
// nesting), so the lock order stays acyclic.
func (c *Consumer) Commit() {
	c.mu.Lock()
	snapshot := make(map[int]int64, len(c.positions))
	for pi, pos := range c.positions {
		snapshot[pi] = pos
	}
	c.mu.Unlock()
	c.group.mu.Lock()
	for pi, pos := range snapshot {
		if pos > c.group.committed[pi] {
			c.group.committed[pi] = pos
		}
	}
	c.group.mu.Unlock()
	if c.topic.broker != nil && c.topic.broker.dir != "" {
		// Checkpoint offsets durably; best effort (at-least-once).
		c.topic.broker.saveGroups()
	}
}

// Close leaves the group, triggering a rebalance. A Poll blocked on
// the topic is unblocked immediately.
func (c *Consumer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.closeCh)
	c.mu.Unlock()
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	for i, m := range c.group.members {
		if m == c {
			c.group.members = append(c.group.members[:i], c.group.members[i+1:]...)
			break
		}
	}
	c.group.rebalanceLocked(len(c.topic.partitions))
	// Remaining members may have inherited this consumer's partitions;
	// wake them so they re-poll under the new assignment.
	c.topic.broadcast()
}
