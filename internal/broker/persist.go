package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Disk persistence: when a broker is opened with OpenDir, every record
// appended to a partition is also written to that partition's segment
// file as a length-prefixed gob blob, and consumer-group offsets are
// checkpointed to groups.json on every Commit. OpenDir replays the
// segments, so an embedded deployment survives restarts with
// at-least-once semantics (records consumed but not committed are
// redelivered).
//
// Values stored through a durable broker must be gob-encodable;
// interface-typed values (like ais.Message) additionally need their
// concrete types registered once via RegisterType.
//
// Truncate only trims the in-memory window of a durable topic; segment
// compaction is intentionally out of scope (the file keeps the full
// history until removed).

// RegisterType makes a concrete value type storable through durable
// topics (a thin wrapper over gob.Register).
func RegisterType(v any) { gob.Register(v) }

// diskRecord is the on-disk form of one record.
type diskRecord struct {
	Offset    int64
	Key       string
	Value     any
	Timestamp time.Time
}

// segmentWriter appends length-prefixed gob blobs to one partition file.
type segmentWriter struct {
	mu sync.Mutex
	f  *os.File
}

func (s *segmentWriter) append(r Record) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(diskRecord{
		Offset: r.Offset, Key: r.Key, Value: r.Value, Timestamp: r.Timestamp,
	}); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.f.Write(buf.Bytes())
	return err
}

func (s *segmentWriter) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// segmentPath names a partition's file: <dir>/<topic>@<parts>-p<N>.log,
// with the topic path-escaped so a name holding "/" stays one file in
// dir.
func segmentPath(dir, topic string, parts, partition int) string {
	return filepath.Join(dir, fmt.Sprintf("%s@%d-p%d.log", url.PathEscape(topic), parts, partition))
}

// OpenDir opens (or creates) a durable broker rooted at dir: existing
// topic segments are replayed into memory and committed group offsets
// restored.
func OpenDir(dir string) (*Broker, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := New()
	b.dir = dir

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Discover topics from segment file names.
	type topicMeta struct{ parts int }
	topics := map[string]topicMeta{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		base := strings.TrimSuffix(name, ".log")
		at := strings.LastIndex(base, "@")
		dash := strings.LastIndex(base, "-p")
		if at < 0 || dash < at {
			continue
		}
		parts, err1 := strconv.Atoi(base[at+1 : dash])
		topic, err2 := url.PathUnescape(base[:at])
		if err1 != nil || err2 != nil || parts <= 0 {
			continue
		}
		topics[topic] = topicMeta{parts: parts}
	}
	for name, meta := range topics {
		if err := b.CreateTopic(name, meta.parts); err != nil {
			return nil, err
		}
		t, _ := b.topic(name)
		for pi := 0; pi < meta.parts; pi++ {
			if err := replaySegment(segmentPath(dir, name, meta.parts, pi), t.partitions[pi], name, pi); err != nil {
				return nil, fmt.Errorf("broker: replay %s p%d: %w", name, pi, err)
			}
		}
	}
	// Restore committed offsets.
	if raw, err := os.ReadFile(filepath.Join(dir, "groups.json")); err == nil {
		var saved map[string]map[string][]int64 // topic -> group -> offsets
		if err := json.Unmarshal(raw, &saved); err != nil {
			return nil, fmt.Errorf("broker: groups.json: %w", err)
		}
		for topicName, groups := range saved {
			t, err := b.topic(topicName)
			if err != nil {
				continue // topic files removed; drop its offsets
			}
			for groupName, offsets := range groups {
				g := t.ensureGroup(groupName)
				g.mu.Lock()
				for pi, off := range offsets {
					if pi < len(g.committed) {
						g.committed[pi] = off
					}
				}
				g.mu.Unlock()
			}
		}
	}
	return b, nil
}

func replaySegment(path string, p *partition, topicName string, pi int) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			// A torn final record (crash mid-write) ends the replay.
			if err == io.ErrUnexpectedEOF {
				return nil
			}
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		blob := make([]byte, n)
		if _, err := io.ReadFull(f, blob); err != nil {
			return nil // torn record: ignore the tail
		}
		var dr diskRecord
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dr); err != nil {
			return fmt.Errorf("decode record: %w", err)
		}
		p.mu.Lock()
		// Replay must preserve absolute offsets.
		if len(p.records) == 0 {
			p.base = dr.Offset
		}
		p.records = append(p.records, Record{
			Topic: topicName, Partition: pi,
			Offset: dr.Offset, Key: dr.Key, Value: dr.Value, Timestamp: dr.Timestamp,
		})
		p.mu.Unlock()
	}
}

// attachSegments opens the partition writers of a durable topic;
// called under b.mu by CreateTopic.
func (b *Broker) attachSegments(t *topic) error {
	for pi := range t.partitions {
		f, err := os.OpenFile(segmentPath(b.dir, t.name, len(t.partitions), pi),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		t.partitions[pi].disk = &segmentWriter{f: f}
	}
	return nil
}

// saveGroups checkpoints all committed offsets; called after Commit on
// durable brokers.
func (b *Broker) saveGroups() error {
	out := map[string]map[string][]int64{}
	b.mu.RLock()
	for name, t := range b.topics {
		t.groupMu.Lock()
		for gname, g := range t.groups {
			g.mu.Lock()
			offsets := append([]int64(nil), g.committed...)
			g.mu.Unlock()
			if out[name] == nil {
				out[name] = map[string][]int64{}
			}
			out[name][gname] = offsets
		}
		t.groupMu.Unlock()
	}
	dir := b.dir
	b.mu.RUnlock()

	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "groups.json.tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "groups.json"))
}

// Close flushes and closes the durable broker's segment files (no-op
// for in-memory brokers).
func (b *Broker) Close() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dir == "" {
		return nil
	}
	var firstErr error
	for _, t := range b.topics {
		for _, p := range t.partitions {
			if p.disk != nil {
				if err := p.disk.close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}
