package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSetGetDel(t *testing.T) {
	s := New()
	defer s.Close()
	s.Set("k", "v")
	v, ok, err := s.Get("k")
	if err != nil || !ok || v != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if n := s.Del("k", "missing"); n != 1 {
		t.Fatalf("del = %d", n)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("key survived delete")
	}
}

func TestSetOverwritesKindAndTTL(t *testing.T) {
	s := New()
	defer s.Close()
	s.HSet("k", "f", "v")
	s.Set("k", "plain") // overwrite hash with string
	v, ok, err := s.Get("k")
	if err != nil || !ok || v != "plain" {
		t.Fatalf("get after overwrite: %q %v %v", v, ok, err)
	}
	s.SetEx("e", "v", time.Minute)
	s.Set("e", "v2") // plain SET clears the TTL
	if ttl, ok := s.TTL("e"); !ok || ttl >= 0 {
		t.Fatalf("ttl after plain set = %v %v, want -1 (no expiry)", ttl, ok)
	}
}

func TestExpiry(t *testing.T) {
	s := New()
	defer s.Close()
	s.SetEx("k", "v", 30*time.Millisecond)
	if !s.Exists("k") {
		t.Fatal("key must exist before expiry")
	}
	time.Sleep(60 * time.Millisecond)
	if s.Exists("k") {
		t.Fatal("key must be gone after expiry")
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("expired key readable")
	}
}

func TestExpireAndTTL(t *testing.T) {
	s := New()
	defer s.Close()
	s.Set("k", "v")
	if ttl, ok := s.TTL("k"); !ok || ttl >= 0 {
		t.Fatalf("no-expiry TTL = %v %v", ttl, ok)
	}
	if !s.Expire("k", time.Hour) {
		t.Fatal("expire on existing key must succeed")
	}
	ttl, ok := s.TTL("k")
	if !ok || ttl <= 59*time.Minute || ttl > time.Hour {
		t.Fatalf("ttl = %v %v", ttl, ok)
	}
	if s.Expire("missing", time.Hour) {
		t.Fatal("expire on missing key must fail")
	}
	if _, ok := s.TTL("missing"); ok {
		t.Fatal("TTL on missing key must report absent")
	}
}

func TestWrongTypeErrors(t *testing.T) {
	s := New()
	defer s.Close()
	s.Set("str", "v")
	if _, err := s.HGetAll("str"); err != ErrWrongType {
		t.Fatalf("HGetAll on string: %v", err)
	}
	if _, err := s.ZAdd("str", 1, "m"); err != ErrWrongType {
		t.Fatalf("ZAdd on string: %v", err)
	}
	s.HSet("h", "f", "v")
	if _, _, err := s.Get("h"); err != ErrWrongType {
		t.Fatalf("Get on hash: %v", err)
	}
}

func TestHashOps(t *testing.T) {
	s := New()
	defer s.Close()
	isNew, err := s.HSet("vessel:123", "lat", "37.9")
	if err != nil || !isNew {
		t.Fatalf("hset: %v %v", isNew, err)
	}
	isNew, _ = s.HSet("vessel:123", "lat", "38.0")
	if isNew {
		t.Fatal("overwriting field must not report new")
	}
	s.HSet("vessel:123", "lon", "23.6")
	m, err := s.HGetAll("vessel:123")
	if err != nil || len(m) != 2 || m["lat"] != "38.0" {
		t.Fatalf("hgetall: %v %v", m, err)
	}
	if n, _ := s.HLen("vessel:123"); n != 2 {
		t.Fatalf("hlen = %d", n)
	}
	if n, _ := s.HDel("vessel:123", "lat", "missing"); n != 1 {
		t.Fatalf("hdel = %d", n)
	}
	if _, ok, _ := s.HGet("vessel:123", "lat"); ok {
		t.Fatal("deleted field readable")
	}
	// Deleting the last field removes the key entirely.
	s.HDel("vessel:123", "lon")
	if s.Exists("vessel:123") {
		t.Fatal("empty hash must vanish")
	}
}

func TestHSetFields(t *testing.T) {
	s := New()
	defer s.Close()
	added, err := s.HSetFields("vessel:124", []Field{
		{Name: "lat", Value: "37.9"},
		{Name: "lon", Value: "23.6"},
		{Name: "lat", Value: "38.0"}, // later duplicate wins, not re-counted
	})
	if err != nil || added != 2 {
		t.Fatalf("hsetfields: added=%d err=%v", added, err)
	}
	m, err := s.HGetAll("vessel:124")
	if err != nil || len(m) != 2 || m["lat"] != "38.0" || m["lon"] != "23.6" {
		t.Fatalf("hgetall: %v %v", m, err)
	}
	// Rewriting the same document reports zero new fields, like HSetMulti.
	added, err = s.HSetFields("vessel:124", []Field{
		{Name: "lat", Value: "38.1"}, {Name: "lon", Value: "23.7"},
	})
	if err != nil || added != 0 {
		t.Fatalf("rewrite: added=%d err=%v", added, err)
	}
	if v, ok, _ := s.HGet("vessel:124", "lat"); !ok || v != "38.1" {
		t.Fatalf("lat = %q %v", v, ok)
	}
}

func TestZSetBasics(t *testing.T) {
	s := New()
	defer s.Close()
	s.ZAdd("events", 100, "e1")
	s.ZAdd("events", 50, "e2")
	s.ZAdd("events", 75, "e3")
	members, err := s.ZRangeByScore("events", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || members[0].Member != "e2" || members[2].Member != "e1" {
		t.Fatalf("range = %v", members)
	}
	if n, _ := s.ZCard("events"); n != 3 {
		t.Fatalf("zcard = %d", n)
	}
	if sc, ok, _ := s.ZScore("events", "e3"); !ok || sc != 75 {
		t.Fatalf("zscore = %v %v", sc, ok)
	}
	// Update score re-sorts.
	s.ZAdd("events", 10, "e1")
	members, _ = s.ZRangeByScore("events", 0, 1000)
	if members[0].Member != "e1" {
		t.Fatalf("after update: %v", members)
	}
	if n, _ := s.ZRem("events", "e1", "missing"); n != 1 {
		t.Fatalf("zrem = %d", n)
	}
}

func TestZRangeByScoreBounds(t *testing.T) {
	s := New()
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.ZAdd("z", float64(i), fmt.Sprintf("m%d", i))
	}
	got, _ := s.ZRangeByScore("z", 3, 6)
	if len(got) != 4 {
		t.Fatalf("inclusive range returned %d members", len(got))
	}
	if got[0].Score != 3 || got[3].Score != 6 {
		t.Fatalf("range = %v", got)
	}
	if empty, _ := s.ZRangeByScore("z", 100, 200); empty != nil {
		t.Fatalf("out-of-range must be empty, got %v", empty)
	}
}

func TestZSetOrderingPropertyBased(t *testing.T) {
	f := func(scores []float64) bool {
		z := newZSet()
		for i, sc := range scores {
			z.add(sc, fmt.Sprintf("m%d", i))
		}
		all := z.rangeByScore(negInf, posInf)
		if len(all) != len(z.scores) {
			return false
		}
		return sort.SliceIsSorted(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score < all[j].Score
			}
			return all[i].Member < all[j].Member
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZSetAddRemoveInvariant(t *testing.T) {
	z := newZSet()
	rng := rand.New(rand.NewSource(5))
	live := map[string]float64{}
	for i := 0; i < 2000; i++ {
		member := fmt.Sprintf("m%d", rng.Intn(100))
		if rng.Float64() < 0.6 {
			score := float64(rng.Intn(50))
			z.add(score, member)
			live[member] = score
		} else {
			z.remove(member)
			delete(live, member)
		}
		if z.len() != len(live) {
			t.Fatalf("iteration %d: len %d want %d", i, z.len(), len(live))
		}
	}
	for m, sc := range live {
		if got, ok := z.score(m); !ok || got != sc {
			t.Fatalf("member %s: score %v %v want %v", m, got, ok, sc)
		}
	}
}

func TestPubSub(t *testing.T) {
	s := New()
	defer s.Close()
	ch, cancel := s.Subscribe("events", 8)
	defer cancel()
	if n := s.Publish("events", "hello"); n != 1 {
		t.Fatalf("publish reached %d subscribers", n)
	}
	select {
	case m := <-ch:
		if m.Payload != "hello" || m.Channel != "events" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
	cancel()
	if n := s.Publish("events", "after"); n != 0 {
		t.Fatalf("publish after cancel reached %d", n)
	}
	// Channel must be closed after cancel.
	if _, open := <-ch; open {
		t.Fatal("subscription channel must close on cancel")
	}
}

func TestPubSubSlowSubscriberDoesNotBlock(t *testing.T) {
	s := New()
	defer s.Close()
	_, cancel := s.Subscribe("busy", 1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			s.Publish("busy", "m")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("publisher blocked on slow subscriber")
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	s := New()
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%37)
				switch i % 4 {
				case 0:
					s.Set(key, "v")
				case 1:
					s.Get(key)
				case 2:
					s.HSet("h"+key, "f", "v")
				case 3:
					s.ZAdd("z-shared", float64(i), fmt.Sprintf("m%d-%d", g, i))
				}
			}
		}(g)
	}
	wg.Wait()
	if n, err := s.ZCard("z-shared"); err != nil || n != 8*125 {
		t.Fatalf("zcard = %d %v", n, err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New()
	defer s.Close()
	for i := 0; i < b.N; i++ {
		s.Set("key", "value")
	}
}

func BenchmarkHSet(b *testing.B) {
	s := New()
	defer s.Close()
	for i := 0; i < b.N; i++ {
		s.HSet("vessel:123", "state", "payload")
	}
}

// BenchmarkWriteStateFields compares the writer actor's two shapes of
// a vessel-state update: eight individual HSet calls (eight store-lock
// round-trips) against one batched HSetMulti.
func BenchmarkWriteStateFields(b *testing.B) {
	fields := map[string]string{
		"lat": "37.96600", "lon": "23.71400", "sog": "12.5", "cog": "118.0",
		"status": "UnderWayUsingEngine", "ts": "2026-07-05T09:00:00Z",
		"name": "MV BENCH", "type": "70",
	}
	b.Run("hset-per-field", func(b *testing.B) {
		s := New()
		defer s.Close()
		for i := 0; i < b.N; i++ {
			for f, v := range fields {
				s.HSet("vessel:123", f, v)
			}
		}
	})
	b.Run("hsetmulti", func(b *testing.B) {
		s := New()
		defer s.Close()
		for i := 0; i < b.N; i++ {
			s.HSetMulti("vessel:123", fields)
		}
	})
}

func BenchmarkZAdd(b *testing.B) {
	s := New()
	defer s.Close()
	for i := 0; i < b.N; i++ {
		s.ZAdd("z", float64(i%1000), fmt.Sprintf("m%d", i%1000))
	}
}

func TestKeysWithPrefix(t *testing.T) {
	s := New()
	defer s.Close()
	s.Set("ckpt:100000001", "a")
	s.Set("ckpt:100000002", "b")
	s.Set("ckpt:1", "overlap") // shares the "ckpt:1" prefix with the first two
	s.Set("vessel:100000001", "c")
	s.Set("ck", "not-a-checkpoint")

	want := func(prefix string, keys ...string) {
		t.Helper()
		got := s.KeysWithPrefix(prefix)
		sort.Strings(got)
		sort.Strings(keys)
		if len(got) != len(keys) {
			t.Fatalf("KeysWithPrefix(%q) = %v, want %v", prefix, got, keys)
		}
		for i := range got {
			if got[i] != keys[i] {
				t.Fatalf("KeysWithPrefix(%q) = %v, want %v", prefix, got, keys)
			}
		}
	}

	// Empty prefix returns every live key.
	want("", "ckpt:100000001", "ckpt:100000002", "ckpt:1", "vessel:100000001", "ck")
	// A namespace prefix.
	want("ckpt:", "ckpt:100000001", "ckpt:100000002", "ckpt:1")
	// Overlapping prefixes: "ckpt:1" is both a full key and a prefix of
	// two longer ones — all three must match.
	want("ckpt:1", "ckpt:100000001", "ckpt:100000002", "ckpt:1")
	want("ckpt:100000001", "ckpt:100000001")
	// No matches.
	want("zzz:")
	// A prefix longer than any key.
	want("vessel:100000001-and-more")
}

func TestKeysWithPrefixSkipsExpired(t *testing.T) {
	s := New()
	defer s.Close()
	s.Set("p:alive", "v")
	s.SetEx("p:dead", "v", time.Nanosecond)
	time.Sleep(2 * time.Millisecond)
	got := s.KeysWithPrefix("p:")
	if len(got) != 1 || got[0] != "p:alive" {
		t.Fatalf("KeysWithPrefix over expired keys = %v, want [p:alive]", got)
	}
}
