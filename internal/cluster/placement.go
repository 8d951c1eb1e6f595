package cluster

import "sync/atomic"

// Assignment is one epoch of the partition→worker table. Epochs are
// strictly monotone: every membership change (join, leave, death)
// produces a new epoch, and consumers of the table only ever move
// forward, so a delayed older assignment can never roll ownership back
// (epoch fencing).
type Assignment struct {
	Epoch uint64
	// Workers maps each partition to the ID of the worker owning it.
	// Partitions without a live owner are absent (no workers at all).
	Workers map[PartitionID]string
}

// Clone deep-copies the assignment so snapshots can cross goroutines.
func (a Assignment) Clone() Assignment {
	out := Assignment{Epoch: a.Epoch, Workers: make(map[PartitionID]string, len(a.Workers))}
	for p, w := range a.Workers {
		out.Workers[p] = w
	}
	return out
}

// Placement answers the one question every routing layer asks on the
// hot path: which partition owns this key, and is that partition mine?
type Placement interface {
	// OwnerOf returns the partition owning key (static per ring).
	OwnerOf(key uint64) PartitionID
	// WorkerOf returns the worker currently assigned the partition
	// ("" when unassigned).
	WorkerOf(part PartitionID) string
	// Epoch returns the epoch of the assignment in effect.
	Epoch() uint64
}

// Table is the worker-local view of the placement: the immutable ring
// plus an atomically swapped assignment snapshot. Reads are lock-free
// (one atomic pointer load), so ownership checks can sit on the
// per-message path.
type Table struct {
	ring *Ring
	cur  atomic.Pointer[tableSnapshot]
}

// tableSnapshot is the dense, read-optimised form of an assignment.
type tableSnapshot struct {
	epoch  uint64
	owners []string // indexed by partition; "" = unassigned
}

// NewTable builds an empty table (epoch 0, nothing assigned) over ring.
func NewTable(ring *Ring) *Table {
	t := &Table{ring: ring}
	t.cur.Store(&tableSnapshot{owners: make([]string, ring.Partitions())})
	return t
}

// Update installs a newer assignment. Older or same-epoch assignments
// are ignored (epoch fencing), and ok reports whether the table moved.
func (t *Table) Update(a Assignment) bool {
	for {
		old := t.cur.Load()
		if a.Epoch <= old.epoch {
			return false
		}
		snap := &tableSnapshot{epoch: a.Epoch, owners: make([]string, t.ring.Partitions())}
		for p, w := range a.Workers {
			if int(p) >= 0 && int(p) < len(snap.owners) {
				snap.owners[p] = w
			}
		}
		if t.cur.CompareAndSwap(old, snap) {
			return true
		}
	}
}

// OwnerOf implements Placement.
func (t *Table) OwnerOf(key uint64) PartitionID { return t.ring.Owner(key) }

// WorkerOf implements Placement.
func (t *Table) WorkerOf(part PartitionID) string {
	snap := t.cur.Load()
	if int(part) < 0 || int(part) >= len(snap.owners) {
		return ""
	}
	return snap.owners[part]
}

// Epoch implements Placement.
func (t *Table) Epoch() uint64 { return t.cur.Load().epoch }
