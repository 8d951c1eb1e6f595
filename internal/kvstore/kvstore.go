// Package kvstore implements the in-memory key-value store the writer
// actor persists actor states into, playing the role Redis plays in the
// paper's middleware: strings, hashes and sorted sets with TTLs,
// publish/subscribe channels, and a line-protocol
// TCP server (a RESP subset) so external middleware like the UI API can
// read the state the same way it would from Redis.
package kvstore

import (
	"fmt"
	"sync"
	"time"
)

// valueKind discriminates what a key holds; Redis-style type errors are
// returned when a command addresses a key of the wrong kind.
type valueKind uint8

const (
	kindString valueKind = iota
	kindHash
	kindZSet
)

type entry struct {
	kind     valueKind
	str      string
	hash     map[string]string
	zset     *zset
	expireAt time.Time // zero means no expiry
}

func (e *entry) expired(now time.Time) bool {
	return !e.expireAt.IsZero() && now.After(e.expireAt)
}

// ErrWrongType is returned when a key holds a value of another kind.
var ErrWrongType = fmt.Errorf("kvstore: operation against a key holding the wrong kind of value")

// Store is a thread-safe in-memory database.
type Store struct {
	mu   sync.RWMutex
	data map[string]*entry

	subMu  sync.RWMutex
	subs   map[string]map[int]chan Message
	nextID int

	stopSweep chan struct{}
	sweepOnce sync.Once
}

// Message is one pub/sub delivery.
type Message struct {
	Channel string
	Payload string
}

// New creates an empty store with a background expiry sweeper.
func New() *Store {
	s := &Store{
		data:      make(map[string]*entry),
		subs:      make(map[string]map[int]chan Message),
		stopSweep: make(chan struct{}),
	}
	go s.sweeper()
	return s
}

// Close stops the background sweeper.
func (s *Store) Close() {
	s.sweepOnce.Do(func() { close(s.stopSweep) })
}

func (s *Store) sweeper() {
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case now := <-ticker.C:
			s.mu.Lock()
			for k, e := range s.data {
				if e.expired(now) {
					delete(s.data, k)
				}
			}
			s.mu.Unlock()
		}
	}
}

// live returns the entry for key if present and unexpired; callers hold
// at least a read lock. Expired entries are treated as absent (lazy
// deletion happens on the next write or sweep).
func (s *Store) live(key string) (*entry, bool) {
	e, ok := s.data[key]
	if !ok || e.expired(time.Now()) {
		return nil, false
	}
	return e, true
}

// Set stores a string value, clearing any previous TTL.
func (s *Store) Set(key, value string) {
	s.mu.Lock()
	s.data[key] = &entry{kind: kindString, str: value}
	s.mu.Unlock()
}

// SetEx stores a string value with a TTL.
func (s *Store) SetEx(key, value string, ttl time.Duration) {
	s.mu.Lock()
	s.data[key] = &entry{kind: kindString, str: value, expireAt: time.Now().Add(ttl)}
	s.mu.Unlock()
}

// Get returns the string stored at key.
func (s *Store) Get(key string) (string, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return "", false, nil
	}
	if e.kind != kindString {
		return "", false, ErrWrongType
	}
	return e.str, true, nil
}

// Del removes keys, returning how many existed.
func (s *Store) Del(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.live(k); ok {
			n++
		}
		delete(s.data, k)
	}
	return n
}

// Exists reports whether the key is present and unexpired.
func (s *Store) Exists(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.live(key)
	return ok
}

// Expire sets a TTL on an existing key.
func (s *Store) Expire(key string, ttl time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		return false
	}
	e.expireAt = time.Now().Add(ttl)
	return true
}

// TTL returns the remaining time to live, ok=false when the key is
// missing, and a negative duration when the key has no expiry.
func (s *Store) TTL(key string) (time.Duration, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return 0, false
	}
	if e.expireAt.IsZero() {
		return -1, true
	}
	return time.Until(e.expireAt), true
}

// Keys returns all live keys (test/introspection helper; O(n)).
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.data))
	now := time.Now()
	for k, e := range s.data {
		if !e.expired(now) {
			out = append(out, k)
		}
	}
	return out
}

// KeysWithPrefix returns all live keys beginning with prefix (O(n)
// scan). An empty prefix returns every live key. The cluster rebalance
// path uses it to enumerate "ckpt:<mmsi>" keys when a worker acquires
// a partition.
func (s *Store) KeysWithPrefix(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, 64)
	now := time.Now()
	for k, e := range s.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix && !e.expired(now) {
			out = append(out, k)
		}
	}
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	now := time.Now()
	for _, e := range s.data {
		if !e.expired(now) {
			n++
		}
	}
	return n
}

// HSet sets field to value in the hash at key, creating the hash as
// needed. It returns true when the field is new.
func (s *Store) HSet(key, field, value string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		e = &entry{kind: kindHash, hash: make(map[string]string)}
		s.data[key] = e
	} else if e.kind != kindHash {
		return false, ErrWrongType
	}
	_, existed := e.hash[field]
	e.hash[field] = value
	return !existed, nil
}

// HSetMulti sets every field/value pair in the hash at key under one
// lock acquisition, creating the hash as needed — the batched write
// path of the writer actors, which would otherwise pay one store-wide
// mutex round-trip per field. It returns how many fields were new.
func (s *Store) HSetMulti(key string, fields map[string]string) (int, error) {
	if len(fields) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		e = &entry{kind: kindHash, hash: make(map[string]string, len(fields))}
		s.data[key] = e
	} else if e.kind != kindHash {
		return 0, ErrWrongType
	}
	added := 0
	for f, v := range fields {
		if _, existed := e.hash[f]; !existed {
			added++
		}
		e.hash[f] = v
	}
	return added, nil
}

// Field is one name/value pair of a batched hash write. A []Field is
// the allocation-free alternative to the map[string]string HSetMulti
// takes: writers build the slice in reused scratch (the values may all
// be substrings of one backing string) and no per-write map is needed.
type Field struct {
	Name  string
	Value string
}

// HSetFields sets every field under one lock acquisition, like
// HSetMulti but from a []Field. Later duplicates of a name win. It
// returns how many fields were new.
func (s *Store) HSetFields(key string, fields []Field) (int, error) {
	if len(fields) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		e = &entry{kind: kindHash, hash: make(map[string]string, len(fields))}
		s.data[key] = e
	} else if e.kind != kindHash {
		return 0, ErrWrongType
	}
	added := 0
	for _, f := range fields {
		if _, existed := e.hash[f.Name]; !existed {
			added++
		}
		e.hash[f.Name] = f.Value
	}
	return added, nil
}

// HGet returns the value of field in the hash at key.
func (s *Store) HGet(key, field string) (string, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return "", false, nil
	}
	if e.kind != kindHash {
		return "", false, ErrWrongType
	}
	v, ok := e.hash[field]
	return v, ok, nil
}

// HGetAll returns a copy of the whole hash at key.
func (s *Store) HGetAll(key string) (map[string]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return map[string]string{}, nil
	}
	if e.kind != kindHash {
		return nil, ErrWrongType
	}
	out := make(map[string]string, len(e.hash))
	for f, v := range e.hash {
		out[f] = v
	}
	return out, nil
}

// HDel removes fields from the hash at key, returning how many existed.
func (s *Store) HDel(key string, fields ...string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		return 0, nil
	}
	if e.kind != kindHash {
		return 0, ErrWrongType
	}
	n := 0
	for _, f := range fields {
		if _, ok := e.hash[f]; ok {
			delete(e.hash, f)
			n++
		}
	}
	if len(e.hash) == 0 {
		delete(s.data, key)
	}
	return n, nil
}

// HLen returns the number of fields in the hash at key.
func (s *Store) HLen(key string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return 0, nil
	}
	if e.kind != kindHash {
		return 0, ErrWrongType
	}
	return len(e.hash), nil
}

// ZAdd inserts or updates a member with the given score in the sorted
// set at key, returning true when the member is new.
func (s *Store) ZAdd(key string, score float64, member string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		e = &entry{kind: kindZSet, zset: newZSet()}
		s.data[key] = e
	} else if e.kind != kindZSet {
		return false, ErrWrongType
	}
	return e.zset.add(score, member), nil
}

// ZScore returns the score of a member in the sorted set at key.
func (s *Store) ZScore(key, member string) (float64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return 0, false, nil
	}
	if e.kind != kindZSet {
		return 0, false, ErrWrongType
	}
	sc, ok := e.zset.score(member)
	return sc, ok, nil
}

// ZRem removes members from the sorted set at key.
func (s *Store) ZRem(key string, members ...string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.live(key)
	if !ok {
		return 0, nil
	}
	if e.kind != kindZSet {
		return 0, ErrWrongType
	}
	n := 0
	for _, m := range members {
		if e.zset.remove(m) {
			n++
		}
	}
	if e.zset.len() == 0 {
		delete(s.data, key)
	}
	return n, nil
}

// ZCard returns the cardinality of the sorted set at key.
func (s *Store) ZCard(key string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return 0, nil
	}
	if e.kind != kindZSet {
		return 0, ErrWrongType
	}
	return e.zset.len(), nil
}

// ZMember is one member/score pair returned by range queries.
type ZMember struct {
	Member string
	Score  float64
}

// ZRangeByScore returns members with min <= score <= max in score order.
func (s *Store) ZRangeByScore(key string, min, max float64) ([]ZMember, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.live(key)
	if !ok {
		return nil, nil
	}
	if e.kind != kindZSet {
		return nil, ErrWrongType
	}
	return e.zset.rangeByScore(min, max), nil
}

// Publish delivers payload to every subscriber of channel, returning
// the number of receivers. Slow subscribers drop messages rather than
// block the publisher (the writer actor must never stall on a reader).
func (s *Store) Publish(channel, payload string) int {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	n := 0
	for _, ch := range s.subs[channel] {
		select {
		case ch <- Message{Channel: channel, Payload: payload}:
			n++
		default:
		}
	}
	return n
}

// Subscribe returns a channel of messages published to the named
// channel and a cancel function.
func (s *Store) Subscribe(channel string, buffer int) (<-chan Message, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Message, buffer)
	s.subMu.Lock()
	id := s.nextID
	s.nextID++
	if s.subs[channel] == nil {
		s.subs[channel] = make(map[int]chan Message)
	}
	s.subs[channel][id] = ch
	s.subMu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			s.subMu.Lock()
			if m := s.subs[channel]; m != nil {
				delete(m, id)
				if len(m) == 0 {
					delete(s.subs, channel)
				}
			}
			// Safe: publishers hold subMu.RLock while sending, so once
			// the entry is gone no send can race this close.
			close(ch)
			s.subMu.Unlock()
		})
	}
}
