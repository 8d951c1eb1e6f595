package cluster

import (
	"testing"
	"time"
)

func TestRingStableAndCovering(t *testing.T) {
	r, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[PartitionID]int)
	for k := uint64(0); k < 100000; k++ {
		p := r.Owner(k)
		if p < 0 || int(p) >= 8 {
			t.Fatalf("key %d mapped to out-of-range partition %d", k, p)
		}
		if r.Owner(k) != p {
			t.Fatalf("key %d owner not stable", k)
		}
		seen[p]++
	}
	// Dense sequential keys must spread over every partition, roughly
	// evenly (within 3x of the mean — consistent hashing is not
	// perfectly uniform but must not starve a partition).
	mean := 100000 / 8
	for p := 0; p < 8; p++ {
		n := seen[PartitionID(p)]
		if n == 0 {
			t.Fatalf("partition %d owns no keys", p)
		}
		if n > 3*mean || n < mean/3 {
			t.Fatalf("partition %d owns %d of 100000 keys (mean %d): too skewed", p, n, mean)
		}
	}
}

func TestRingRejectsZeroPartitions(t *testing.T) {
	if _, err := NewRing(0, 0); err == nil {
		t.Fatal("NewRing(0) should fail")
	}
}

func TestTableEpochFencing(t *testing.T) {
	ring, _ := NewRing(4, 0)
	tab := NewTable(ring)
	if tab.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", tab.Epoch())
	}
	a2 := Assignment{Epoch: 2, Workers: map[PartitionID]string{0: "a", 1: "a", 2: "b", 3: "b"}}
	if !tab.Update(a2) {
		t.Fatal("newer assignment refused")
	}
	if got := tab.WorkerOf(2); got != "b" {
		t.Fatalf("WorkerOf(2) = %q, want b", got)
	}
	// A delayed older assignment must not roll the table back.
	a1 := Assignment{Epoch: 1, Workers: map[PartitionID]string{0: "z", 1: "z", 2: "z", 3: "z"}}
	if tab.Update(a1) {
		t.Fatal("stale assignment accepted")
	}
	if got := tab.WorkerOf(0); got != "a" {
		t.Fatalf("stale update mutated table: WorkerOf(0) = %q", got)
	}
	if tab.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tab.Epoch())
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	ring, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(ring)
	a := Assignment{Epoch: 1, Workers: map[PartitionID]string{}}
	for p := 0; p < ring.Partitions(); p++ {
		a.Workers[PartitionID(p)] = "me"
	}
	if !tab.Update(a) {
		t.Fatal("first assignment refused")
	}
	for k := uint64(1); k < 1000; k++ {
		if tab.WorkerOf(tab.OwnerOf(k)) != "me" {
			t.Fatalf("key %d not owned by the single node", k)
		}
	}
}

func TestCoordinatorStickyRebalance(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{Partitions: 8, HeartbeatTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a1, err := c.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a1.Owned("a")); got != 8 {
		t.Fatalf("solo worker owns %d of 8 partitions", got)
	}

	a2, err := c.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Epoch <= a1.Epoch {
		t.Fatalf("join did not advance the epoch: %d -> %d", a1.Epoch, a2.Epoch)
	}
	na, nb := len(a2.Owned("a")), len(a2.Owned("b"))
	if na != 4 || nb != 4 {
		t.Fatalf("after join: a owns %d, b owns %d, want 4/4", na, nb)
	}
	// Sticky: the partitions "a" kept must be ones it already had.
	before := make(map[PartitionID]bool)
	for _, p := range a1.Owned("a") {
		before[p] = true
	}
	for _, p := range a2.Owned("a") {
		if !before[p] {
			t.Fatalf("rebalance moved partition %d onto its existing owner", p)
		}
	}

	// Leave hands b's partitions back without disturbing a's.
	if err := c.Leave("b"); err != nil {
		t.Fatal(err)
	}
	a3 := c.Assignment()
	if got := len(a3.Owned("a")); got != 8 {
		t.Fatalf("after leave: a owns %d of 8", got)
	}
	keptA := make(map[PartitionID]bool)
	for _, p := range a2.Owned("a") {
		keptA[p] = true
	}
	for _, p := range a2.Owned("a") {
		if a3.Workers[p] != "a" {
			t.Fatalf("leave reassigned partition %d away from surviving owner", p)
		}
	}
	_ = keptA
}

func TestCoordinatorExpiresDeadWorkers(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{
		Partitions:       4,
		HeartbeatTimeout: 80 * time.Millisecond,
		SweepInterval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Join("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("b"); err != nil {
		t.Fatal(err)
	}

	// Keep a alive; let b die.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.Heartbeat("a")
			}
		}
	}()
	defer close(stop)

	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		a, ws := c.Assignment(), c.Workers()
		if len(a.Owned("a")) == 4 && len(a.Owned("b")) == 0 &&
			len(ws) == 1 && ws[0] == "a" {
			return
		}
	}
	t.Fatal("dead worker's partitions were never reassigned")
}

func TestHeartbeatReadmitsExpiredWorker(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{Partitions: 4, HeartbeatTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A heartbeat from a worker the coordinator never saw is a join.
	a, err := c.Heartbeat("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Owned("x")); got != 4 {
		t.Fatalf("re-admitted worker owns %d of 4", got)
	}
}
