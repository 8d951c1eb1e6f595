package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// payload is the durable test value type.
type payload struct {
	Seq  int
	Note string
}

func init() { RegisterType(payload{}) }

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b1, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.CreateTopic("ais", 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := b1.Produce("ais", fmt.Sprintf("k%d", i%7), payload{Seq: i, Note: "hello"}); err != nil {
			t.Fatal(err)
		}
	}
	// Consume and commit half.
	c, _ := b1.Subscribe("ais", "g")
	got := 0
	for got < 50 {
		recs := c.Poll(50-got, time.Second)
		if recs == nil {
			t.Fatal("poll stalled")
		}
		got += len(recs)
	}
	c.Commit()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log and offsets survive.
	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Partitions("ais") != 4 {
		t.Fatalf("partitions = %d", b2.Partitions("ais"))
	}
	ends, _ := b2.EndOffsets("ais")
	total := int64(0)
	for _, e := range ends {
		total += e
	}
	if total != 100 {
		t.Fatalf("replayed %d records, want 100", total)
	}
	// The group resumes from its committed offsets: exactly 50 remain.
	c2, _ := b2.Subscribe("ais", "g")
	remaining := 0
	for {
		recs := c2.Poll(200, 200*time.Millisecond)
		if recs == nil {
			break
		}
		for _, r := range recs {
			p, ok := r.Value.(payload)
			if !ok || p.Note != "hello" {
				t.Fatalf("value corrupted: %#v", r.Value)
			}
			remaining++
		}
	}
	if remaining != 50 {
		t.Fatalf("resumed with %d records, want 50", remaining)
	}
}

// TestDurableTopicNameWithSlash: a topic whose name holds "/" (the
// cluster's "part/<id>/ingest" forward topics) persists into dir and
// replays under its own name, with its group offsets.
func TestDurableTopicNameWithSlash(t *testing.T) {
	const topic = "part/3/ingest"
	dir := t.TempDir()
	b1, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.CreateTopic(topic, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := b1.Produce(topic, "k", payload{Seq: i, Note: "fwd"}); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := b1.Subscribe(topic, "g")
	if recs := c.Poll(4, time.Second); len(recs) != 4 {
		t.Fatalf("polled %d records, want 4", len(recs))
	}
	c.Commit()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if ends, err := b2.EndOffsets(topic); err != nil || len(ends) != 1 || ends[0] != 10 {
		t.Fatalf("replayed end offsets %v (err %v), want [10]", ends, err)
	}
	c2, _ := b2.Subscribe(topic, "g")
	recs := c2.Poll(100, 200*time.Millisecond)
	if len(recs) != 6 {
		t.Fatalf("resumed with %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if p, ok := r.Value.(payload); !ok || p.Seq != 4+i || p.Note != "fwd" {
			t.Fatalf("record %d replayed as %#v", i, r.Value)
		}
	}
}

func TestDurableTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	b1, _ := OpenDir(dir)
	b1.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		b1.Produce("t", "k", payload{Seq: i})
	}
	b1.Close()

	// Simulate a crash mid-write: append garbage half-record.
	path := segmentPath(dir, "t", 1, 0)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 1, 200, 1, 2, 3}) // header says 456 bytes, only 3 present
	f.Close()

	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer b2.Close()
	ends, _ := b2.EndOffsets("t")
	if ends[0] != 10 {
		t.Fatalf("replayed %d records, want 10 (tail dropped)", ends[0])
	}
}

func TestDurableOffsetsSurviveWithoutReplayedGroupFile(t *testing.T) {
	dir := t.TempDir()
	b1, _ := OpenDir(dir)
	b1.CreateTopic("t", 2)
	for i := 0; i < 20; i++ {
		b1.Produce("t", fmt.Sprintf("k%d", i), payload{Seq: i})
	}
	b1.Close()
	// Remove the offsets checkpoint: a fresh group starts from zero.
	os.Remove(filepath.Join(dir, "groups.json"))
	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	c, _ := b2.Subscribe("t", "g")
	got := 0
	for {
		recs := c.Poll(100, 200*time.Millisecond)
		if recs == nil {
			break
		}
		got += len(recs)
	}
	if got != 20 {
		t.Fatalf("fresh group read %d, want 20", got)
	}
}

func TestInMemoryBrokerUnaffected(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	if _, _, err := b.Produce("t", "k", 42); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableTruncateKeepsFiles(t *testing.T) {
	dir := t.TempDir()
	b1, _ := OpenDir(dir)
	b1.CreateTopic("t", 1)
	for i := 0; i < 30; i++ {
		b1.Produce("t", "k", payload{Seq: i})
	}
	b1.Truncate("t", 5) // in-memory retention only
	ends, _ := b1.EndOffsets("t")
	if ends[0] != 30 {
		t.Fatalf("end offset %d", ends[0])
	}
	b1.Close()
	// Reopen: the full history is still on disk.
	b2, _ := OpenDir(dir)
	defer b2.Close()
	ends2, _ := b2.EndOffsets("t")
	if ends2[0] != 30 {
		t.Fatalf("disk lost records: %d", ends2[0])
	}
}
