package pipeline

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/checkpoint"
	"seatwin/internal/cluster"
	"seatwin/internal/metrics"
)

// The cluster layer partitions the pipeline's keyspace — MMSIs and
// hexgrid cells — across worker pipelines through internal/cluster's
// consistent-hash ring. Every keyed message goes through one function,
// Pipeline.route, and its one ownership check: a locally-owned key
// takes exactly the single-process path (the check is one atomic
// pointer load and a binary search; with clustering off it is a nil
// comparison), and a foreign key is forwarded in a Forwarded envelope
// onto the owning partition's broker topic, consumed by whichever
// worker currently holds that partition.
//
// Key→partition is static (the ring never changes), so a partition's
// topic is a stable address: a rebalance only moves which worker
// consumes a topic, never where records are produced. Handoff rides
// the existing checkpoint layer — a worker losing a partition poisons
// its vessel actors (their Stopping handler snapshots to "ckpt:<mmsi>")
// and the gaining worker rehydrates from those keys. Consumer-group
// committed offsets make topic handoff at-least-once, and the vessel
// actors' nanosecond-exact out-of-order guard deduplicates any replay.
//
// Epoch fencing: assignments only ever move forward (cluster.Table
// refuses older epochs), and a consumer re-checks ownership around
// every poll — a worker that lost a partition mid-batch abandons the
// batch without committing, so the new owner replays it.

// ClusterConfig attaches a pipeline to a cluster as one worker.
type ClusterConfig struct {
	// WorkerID names this worker in the assignment table.
	WorkerID string
	// Membership is the control plane: the in-process Coordinator or a
	// RemoteCoordinator pointed at one.
	Membership cluster.Membership
	// Partitions is the cluster's fixed partition count; it must match
	// the coordinator's.
	Partitions int
	// Broker carries the per-partition forward topics
	// ("part/<id>/ingest"). Workers of one cluster must share it (the
	// same embedded instance in-process, or the same durable dir).
	Broker *broker.Broker
	// HeartbeatInterval is how often the worker heartbeats the
	// coordinator and refreshes its assignment (0 = 1s).
	HeartbeatInterval time.Duration
}

const (
	// forwardTopicPrefix prefixes the per-partition forward topics.
	forwardTopicPrefix = "part/"
	// forwardGroup is the consumer group owners consume forward topics
	// under. Committed offsets are what makes partition handoff
	// at-least-once.
	forwardGroup = "workers"
	// forwardBuffer bounds the queue between the actors and the
	// forwarding producer. A full queue applies backpressure to
	// ingestion rather than dropping.
	forwardBuffer = 4096
)

// Forwarded is the wire form of cross-partition traffic: one of the
// pipeline's own actor messages, addressed to the actor of kind Kind
// keyed by ID on the worker that owns ID's partition.
type Forwarded struct {
	Kind uint8
	ID   uint64
	Msg  any
}

// RegisterClusterTypes registers the envelope and the messages it
// carries with the broker's gob codec so forward topics survive a
// durable broker (broker.OpenDir) round-trip. Call once before
// producing.
func RegisterClusterTypes() {
	broker.RegisterType(Forwarded{})
	broker.RegisterType(ais.PositionReport{})
	broker.RegisterType(ais.StaticVoyage{})
	broker.RegisterType(cellPosMsg{})
	broker.RegisterType(forecastMsg{})
}

// forwardItem is one queued cross-partition record.
type forwardItem struct {
	topic string
	key   uint64
	value any
}

// clusterProducer is the produce surface the forwarder writes through;
// *broker.Broker and the chaos wrapper both satisfy it.
type clusterProducer interface {
	Produce(topic, key string, value any) (int, int64, error)
}

// partConsumer is one owned partition's consumer loop handle.
type partConsumer struct {
	part     cluster.PartitionID
	cons     *broker.Consumer
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func (pc *partConsumer) close() {
	pc.stopOnce.Do(func() {
		close(pc.stop)
		pc.cons.Close() // unblocks a blocked Poll
	})
	<-pc.done
}

// clusterState is the per-worker runtime of the cluster layer.
type clusterState struct {
	p      *Pipeline
	cfg    ClusterConfig
	table  *cluster.Table
	me     string
	topics []string // partition -> forward topic name

	produce clusterProducer

	forwardCh chan forwardItem
	pending   int64 // atomic: forwards queued or in flight
	stop      chan struct{}
	stopOnce  sync.Once
	fwdDone   chan struct{}
	hbDone    chan struct{}

	mu           sync.Mutex
	consumers    map[cluster.PartitionID]*partConsumer
	appliedEpoch uint64
	failed       int32 // atomic: FailWorker simulated a crash

	forwards     *metrics.ShardedCounter // records sent to foreign partitions
	forwardDrops *metrics.ShardedCounter // forwards lost after retry exhaustion
	received     *metrics.ShardedCounter // records consumed from owned topics
	fenced       *metrics.ShardedCounter // records abandoned on ownership loss
	rebalances   int64                   // atomic: assignments applied
}

// newClusterState validates the config and wires the worker into the
// cluster: topics are declared for every partition, the worker joins
// through Membership, and the forwarder and heartbeat loops start.
func newClusterState(p *Pipeline, cfg ClusterConfig) (*clusterState, error) {
	if cfg.WorkerID == "" {
		return nil, fmt.Errorf("pipeline: cluster config needs a worker id")
	}
	if cfg.Membership == nil {
		return nil, fmt.Errorf("pipeline: cluster config needs a membership (coordinator)")
	}
	if cfg.Broker == nil {
		return nil, fmt.Errorf("pipeline: cluster config needs a broker for forward topics")
	}
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("pipeline: cluster config needs a partition count")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	ring, err := cluster.NewRing(cfg.Partitions, 0)
	if err != nil {
		return nil, err
	}
	cl := &clusterState{
		p:            p,
		cfg:          cfg,
		table:        cluster.NewTable(ring),
		me:           cfg.WorkerID,
		topics:       make([]string, cfg.Partitions),
		forwardCh:    make(chan forwardItem, forwardBuffer),
		stop:         make(chan struct{}),
		fwdDone:      make(chan struct{}),
		hbDone:       make(chan struct{}),
		consumers:    make(map[cluster.PartitionID]*partConsumer),
		forwards:     metrics.NewShardedCounter(0),
		forwardDrops: metrics.NewShardedCounter(0),
		received:     metrics.NewShardedCounter(0),
		fenced:       metrics.NewShardedCounter(0),
	}
	for i := 0; i < cfg.Partitions; i++ {
		cl.topics[i] = forwardTopicPrefix + strconv.Itoa(i) + "/ingest"
		if err := cfg.Broker.CreateTopic(cl.topics[i], 1); err != nil {
			return nil, err
		}
	}
	cl.produce = cfg.Broker
	if p.cfg.Chaos != nil {
		cl.produce = chaos.WrapProducer(cfg.Broker, p.cfg.Chaos)
	}
	return cl, nil
}

// start joins the cluster and launches the background loops. Split
// from newClusterState so the Pipeline is fully constructed (actors
// spawnable) before the first assignment is applied.
func (cl *clusterState) start() error {
	a, err := cl.cfg.Membership.Join(cl.me)
	if err != nil {
		return fmt.Errorf("pipeline: cluster join: %w", err)
	}
	cl.applyAssignment(a)
	go cl.forwarder()
	go cl.heartbeats()
	return nil
}

// owns reports whether this worker currently owns key's partition. One
// atomic snapshot load, a binary search on the immutable ring and a
// string compare — cheap enough for the per-message path.
func (cl *clusterState) owns(key uint64) bool {
	return cl.table.WorkerOf(cl.table.OwnerOf(key)) == cl.me
}

// topicOf returns the forward topic of the partition owning key.
func (cl *clusterState) topicOf(key uint64) string {
	return cl.topics[cl.table.OwnerOf(key)]
}

// forward enqueues one record for the owning partition's topic. The
// queue is bounded: when the forwarding producer falls behind, ingest
// blocks (backpressure) instead of dropping. A worker that is stopping
// drops the record.
func (cl *clusterState) forward(key uint64, value any) {
	atomic.AddInt64(&cl.pending, 1)
	select {
	case cl.forwardCh <- forwardItem{topic: cl.topicOf(key), key: key, value: value}:
	case <-cl.stop:
		atomic.AddInt64(&cl.pending, -1)
	}
}

// forwarder is the single producer goroutine draining the forward
// queue onto the broker. On stop it flushes what was already queued so
// a graceful shutdown loses nothing.
func (cl *clusterState) forwarder() {
	defer close(cl.fwdDone)
	for {
		select {
		case it := <-cl.forwardCh:
			cl.produceItem(it)
		case <-cl.stop:
			for {
				select {
				case it := <-cl.forwardCh:
					cl.produceItem(it)
				default:
					return
				}
			}
		}
	}
}

// produceItem writes one forwarded record with the pipeline's retry
// policy; an exhausted produce is a dropped forward (counted — the
// source feed's at-least-once redelivery is the recovery path).
func (cl *clusterState) produceItem(it forwardItem) {
	defer atomic.AddInt64(&cl.pending, -1)
	key := strconv.FormatUint(it.key, 10)
	if cl.p.retryDo(it.key, func() error {
		_, _, err := cl.produce.Produce(it.topic, key, it.value)
		return err
	}) {
		cl.forwards.Inc(it.key, 1)
	} else {
		cl.forwardDrops.Inc(it.key, 1)
	}
}

// heartbeats renews the worker's lease and applies piggybacked
// assignment changes until shutdown.
func (cl *clusterState) heartbeats() {
	defer close(cl.hbDone)
	ticker := time.NewTicker(cl.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-cl.stop:
			return
		case <-ticker.C:
			a, err := cl.cfg.Membership.Heartbeat(cl.me)
			if err != nil {
				continue // transient control-plane outage; lease covers gaps
			}
			cl.applyAssignment(a)
		}
	}
}

// applyAssignment installs a (strictly newer — the table fences stale
// epochs) assignment and reconciles this worker's consumers, vessel
// actors and checkpoints with it.
func (cl *clusterState) applyAssignment(a cluster.Assignment) {
	if !cl.table.Update(a) {
		return
	}
	cl.apply()
}

// apply reconciles the running worker with the installed table: start
// consumers for gained partitions, stop consumers for lost ones, then
// passivate foreign vessel actors (their Stopping handler checkpoints)
// and proactively rehydrate checkpointed vessels of gained partitions.
func (cl *clusterState) apply() {
	cl.mu.Lock()
	if atomic.LoadInt32(&cl.failed) == 1 {
		cl.mu.Unlock()
		return
	}
	epoch := cl.table.Epoch()
	if epoch == cl.appliedEpoch {
		cl.mu.Unlock()
		return
	}
	cl.appliedEpoch = epoch
	var (
		gained []cluster.PartitionID
		lost   []*partConsumer
	)
	for i := 0; i < cl.cfg.Partitions; i++ {
		part := cluster.PartitionID(i)
		mine := cl.table.WorkerOf(part) == cl.me
		pc, have := cl.consumers[part]
		switch {
		case mine && !have:
			cons, err := cl.cfg.Broker.Subscribe(cl.topics[i], forwardGroup)
			if err != nil {
				continue // topic was created in newClusterState; can't happen
			}
			npc := &partConsumer{
				part: part,
				cons: cons,
				stop: make(chan struct{}),
				done: make(chan struct{}),
			}
			cl.consumers[part] = npc
			go cl.consumeLoop(npc)
			gained = append(gained, part)
		case !mine && have:
			delete(cl.consumers, part)
			lost = append(lost, pc)
		}
	}
	atomic.AddInt64(&cl.rebalances, 1)
	cl.mu.Unlock()

	for _, pc := range lost {
		pc.close()
	}
	if len(lost) > 0 {
		cl.passivateForeign()
	}
	if len(gained) > 0 {
		cl.rehydrate(gained)
	}
}

// passivateForeign poisons every registered vessel actor whose MMSI
// this worker no longer owns. Poison is graceful: queued messages are
// processed first, then the Stopping handler snapshots any dirty
// window to the shared store for the new owner to rehydrate. The
// registry holds every live vessel actor; one spawned while the walk
// runs may be missed, which leaves an idle actor, never a wrong route:
// ownership checks, not actor existence, decide where reports go.
func (cl *clusterState) passivateForeign() {
	cl.p.system.Each(func(k actor.Key, pid *actor.PID) {
		if k.Kind == kindVessel && !cl.owns(k.ID) {
			cl.p.system.Poison(pid)
		}
	})
}

// rehydrate pre-spawns vessel actors for every checkpointed vessel of
// the gained partitions, so the moved twins resume forecasting from
// their persisted windows before their next report arrives (the actor's
// Started handler loads the checkpoint).
func (cl *clusterState) rehydrate(gained []cluster.PartitionID) {
	if cl.p.ckptInterval() <= 0 {
		return
	}
	set := make(map[cluster.PartitionID]bool, len(gained))
	for _, part := range gained {
		set[part] = true
	}
	for _, k := range cl.p.store.KeysWithPrefix(checkpoint.KeyPrefix) {
		n, err := strconv.ParseUint(k[len(checkpoint.KeyPrefix):], 10, 32)
		if err != nil {
			continue
		}
		if set[cl.table.OwnerOf(n)] {
			cl.p.vesselActor(ais.MMSI(n))
		}
	}
}

// consumeLoop drains one owned partition's forward topic. Ownership is
// re-checked around every batch: a batch polled after the partition
// moved away is abandoned uncommitted (the new owner replays it from
// the group's committed offset), and the loop exits so the broker-level
// consumer group frees the topic for the new owner's consumer.
func (cl *clusterState) consumeLoop(pc *partConsumer) {
	defer close(pc.done)
	defer pc.cons.Close()
	for {
		select {
		case <-pc.stop:
			return
		default:
		}
		recs := pc.cons.Poll(256, 200*time.Millisecond)
		if recs == nil {
			// Timed out or closed; re-check stop and ownership.
			if cl.table.WorkerOf(pc.part) != cl.me {
				return
			}
			continue
		}
		if cl.table.WorkerOf(pc.part) != cl.me {
			cl.fenced.Inc(uint64(pc.part), int64(len(recs)))
			return
		}
		// Each forwarded record is applied locally, exactly as the
		// single-process path would have.
		for i := range recs {
			if f, ok := recs[i].Value.(Forwarded); ok {
				cl.received.Inc(f.ID, 1)
				cl.p.deliver(f.Kind, f.ID, f.Msg)
			}
		}
		pc.cons.Commit()
	}
}

// closeConsumers stops every partition consumer (idempotent).
func (cl *clusterState) closeConsumers() {
	cl.mu.Lock()
	cs := make([]*partConsumer, 0, len(cl.consumers))
	for part, pc := range cl.consumers {
		cs = append(cs, pc)
		delete(cl.consumers, part)
	}
	cl.mu.Unlock()
	for _, pc := range cs {
		pc.close()
	}
}

// shutdown flushes and leaves gracefully: heartbeats stop, queued
// forwards drain onto the broker, consumers close, and the worker
// leaves the cluster so the coordinator reassigns immediately instead
// of waiting out the lease.
func (cl *clusterState) shutdown() {
	cl.stopOnce.Do(func() { close(cl.stop) })
	<-cl.hbDone
	<-cl.fwdDone
	cl.closeConsumers()
	if atomic.LoadInt32(&cl.failed) == 0 {
		cl.cfg.Membership.Leave(cl.me)
	}
}

// OwnsKey reports whether this pipeline currently owns key (an MMSI or
// hexgrid cell). Without cluster config every key is local.
func (p *Pipeline) OwnsKey(key uint64) bool {
	if p.cl == nil {
		return true
	}
	return p.cl.owns(key)
}

// pendingForwards returns how many cross-partition forwards are queued
// or in flight (0 without cluster config) — part of Drain's quiescence
// test.
func (p *Pipeline) pendingForwards() int64 {
	if p.cl == nil {
		return 0
	}
	return atomic.LoadInt64(&p.cl.pending)
}

// ClusterStats snapshots the worker's shard-local cluster counters.
type ClusterStats struct {
	WorkerID        string
	Epoch           uint64
	Partitions      int
	OwnedPartitions int
	Forwards        int64
	ForwardDrops    int64
	Received        int64
	Fenced          int64
	Rebalances      int64
	PendingForwards int64
}

// clusterStats builds the Stats sub-document (nil without cluster
// config).
func (p *Pipeline) clusterStats() *ClusterStats {
	cl := p.cl
	if cl == nil {
		return nil
	}
	owned := 0
	for i := 0; i < cl.cfg.Partitions; i++ {
		if cl.table.WorkerOf(cluster.PartitionID(i)) == cl.me {
			owned++
		}
	}
	return &ClusterStats{
		WorkerID:        cl.me,
		Epoch:           cl.table.Epoch(),
		Partitions:      cl.cfg.Partitions,
		OwnedPartitions: owned,
		Forwards:        cl.forwards.Value(),
		ForwardDrops:    cl.forwardDrops.Value(),
		Received:        cl.received.Value(),
		Fenced:          cl.fenced.Value(),
		Rebalances:      atomic.LoadInt64(&cl.rebalances),
		PendingForwards: atomic.LoadInt64(&cl.pending),
	}
}
