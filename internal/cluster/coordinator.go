package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Membership is the worker-side control-plane surface: join the
// cluster, prove liveness, and learn the current assignment. Both the
// in-process Coordinator and the HTTP RemoteCoordinator implement it,
// so a pipeline is wired identically for single-binary and
// multi-process topologies.
type Membership interface {
	// Join registers the worker and returns the resulting assignment.
	Join(workerID string) (Assignment, error)
	// Heartbeat renews the worker's lease and returns the current
	// assignment (piggybacked so polling workers track epoch changes
	// without a second round-trip). A worker the coordinator had
	// expired is re-admitted: its next assignment tells it what it
	// owns now, which is how a paused-then-resumed worker learns it
	// lost everything it had.
	Heartbeat(workerID string) (Assignment, error)
	// Leave deregisters the worker, handing its partitions to the
	// survivors (graceful shutdown).
	Leave(workerID string) error
}

// CoordinatorOptions shape the coordinator's liveness protocol.
type CoordinatorOptions struct {
	// Partitions is the fixed partition count of the cluster.
	Partitions int
	// HeartbeatTimeout expires a worker that has not heartbeat for
	// this long (0 = 5s).
	HeartbeatTimeout time.Duration
	// SweepInterval is how often expiry is checked (0 = timeout/4).
	SweepInterval time.Duration
}

// Coordinator owns the partition→worker assignment: workers join and
// heartbeat, the coordinator spreads partitions evenly with sticky
// reassignment (a rebalance moves as few partitions as possible), and
// a background sweeper expires workers whose heartbeats stop, handing
// their partitions to the survivors under a new epoch.
type Coordinator struct {
	opts CoordinatorOptions

	mu      sync.Mutex
	workers map[string]time.Time // workerID -> last heartbeat
	cur     Assignment

	rebalances int64 // atomic
	stop       chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
}

// NewCoordinator starts a coordinator (and its expiry sweeper) over
// the given partition count.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Partitions <= 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one partition, got %d", opts.Partitions)
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = opts.HeartbeatTimeout / 4
	}
	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]time.Time),
		cur:     Assignment{Workers: make(map[PartitionID]string)},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.sweeper()
	return c, nil
}

// Close stops the expiry sweeper. Assignments freeze at their last
// epoch.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Rebalances returns how many epoch bumps membership changes caused.
func (c *Coordinator) Rebalances() int64 { return atomic.LoadInt64(&c.rebalances) }

// Workers returns the sorted IDs of the live workers.
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for w := range c.workers {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Assignment returns a copy of the current assignment.
func (c *Coordinator) Assignment() Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Clone()
}

// Join implements Membership.
func (c *Coordinator) Join(workerID string) (Assignment, error) {
	if workerID == "" {
		return Assignment{}, fmt.Errorf("cluster: join needs a worker id")
	}
	c.mu.Lock()
	c.workers[workerID] = time.Now()
	a := c.rebalanceLocked()
	c.mu.Unlock()
	return a, nil
}

// Heartbeat implements Membership. An unknown (expired) worker is
// re-admitted as a fresh join.
func (c *Coordinator) Heartbeat(workerID string) (Assignment, error) {
	if workerID == "" {
		return Assignment{}, fmt.Errorf("cluster: heartbeat needs a worker id")
	}
	c.mu.Lock()
	_, known := c.workers[workerID]
	c.workers[workerID] = time.Now()
	var a Assignment
	if known {
		a = c.cur.Clone()
	} else {
		a = c.rebalanceLocked()
	}
	c.mu.Unlock()
	return a, nil
}

// Leave implements Membership.
func (c *Coordinator) Leave(workerID string) error {
	c.mu.Lock()
	if _, ok := c.workers[workerID]; !ok {
		c.mu.Unlock()
		return nil
	}
	delete(c.workers, workerID)
	c.rebalanceLocked()
	c.mu.Unlock()
	return nil
}

// sweeper expires workers whose heartbeats stopped.
func (c *Coordinator) sweeper() {
	defer close(c.done)
	ticker := time.NewTicker(c.opts.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-ticker.C:
			c.expire(now)
		}
	}
}

func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	expired := false
	for w, last := range c.workers {
		if now.Sub(last) > c.opts.HeartbeatTimeout {
			delete(c.workers, w)
			expired = true
		}
	}
	if expired {
		c.rebalanceLocked()
	}
	c.mu.Unlock()
}

// rebalanceLocked recomputes the assignment with sticky semantics:
// partitions keep their owner while it lives, orphaned partitions go
// to the least-loaded survivors, and overloaded workers shed their
// excess when new workers join — so a membership change moves the
// minimum number of partitions. Callers hold c.mu; the returned
// snapshot is a clone.
func (c *Coordinator) rebalanceLocked() Assignment {
	live := make([]string, 0, len(c.workers))
	for w := range c.workers {
		live = append(live, w)
	}
	sort.Strings(live)

	next := make(map[PartitionID]string, c.opts.Partitions)
	if len(live) > 0 {
		owned := make(map[string][]PartitionID, len(live))
		var pool []PartitionID
		for p := 0; p < c.opts.Partitions; p++ {
			pid := PartitionID(p)
			w := c.cur.Workers[pid]
			if _, alive := c.workers[w]; alive {
				owned[w] = append(owned[w], pid)
			} else {
				pool = append(pool, pid)
			}
		}
		// Shed excess above the ceiling into the pool (join case).
		ceil := (c.opts.Partitions + len(live) - 1) / len(live)
		for _, w := range live {
			for len(owned[w]) > ceil {
				last := owned[w][len(owned[w])-1]
				owned[w] = owned[w][:len(owned[w])-1]
				pool = append(pool, last)
			}
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
		// Hand the pool to the least-loaded workers (ties by ID).
		for _, pid := range pool {
			min := live[0]
			for _, w := range live[1:] {
				if len(owned[w]) < len(owned[min]) {
					min = w
				}
			}
			owned[min] = append(owned[min], pid)
		}
		for w, parts := range owned {
			for _, pid := range parts {
				next[pid] = w
			}
		}
	}

	if assignmentsEqual(c.cur.Workers, next) {
		return c.cur.Clone()
	}
	c.cur = Assignment{Epoch: c.cur.Epoch + 1, Workers: next}
	atomic.AddInt64(&c.rebalances, 1)
	return c.cur.Clone()
}

func assignmentsEqual(a, b map[PartitionID]string) bool {
	if len(a) != len(b) {
		return false
	}
	for p, w := range a {
		if b[p] != w {
			return false
		}
	}
	return true
}
