package kvstore

import (
	"math"
	"sort"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// zset is a sorted set: members ordered by (score, member) with O(log n)
// lookup via a sorted slice plus a score index map. The pipeline stores
// modest per-key cardinalities (events per region, forecasts per cell),
// so a slice beats a skip list on constants and memory.
type zset struct {
	scores  map[string]float64
	ordered []ZMember // sorted by score, then member
}

func newZSet() *zset {
	return &zset{scores: make(map[string]float64)}
}

func (z *zset) len() int { return len(z.ordered) }

// search returns the insertion index for (score, member).
func (z *zset) search(score float64, member string) int {
	return sort.Search(len(z.ordered), func(i int) bool {
		m := z.ordered[i]
		if m.Score != score {
			return m.Score >= score
		}
		return m.Member >= member
	})
}

func (z *zset) add(score float64, member string) bool {
	if old, ok := z.scores[member]; ok {
		if old == score {
			return false
		}
		idx := z.search(old, member)
		z.ordered = append(z.ordered[:idx], z.ordered[idx+1:]...)
		z.scores[member] = score
		idx = z.search(score, member)
		z.ordered = append(z.ordered, ZMember{})
		copy(z.ordered[idx+1:], z.ordered[idx:])
		z.ordered[idx] = ZMember{Member: member, Score: score}
		return false
	}
	z.scores[member] = score
	idx := z.search(score, member)
	z.ordered = append(z.ordered, ZMember{})
	copy(z.ordered[idx+1:], z.ordered[idx:])
	z.ordered[idx] = ZMember{Member: member, Score: score}
	return true
}

func (z *zset) remove(member string) bool {
	score, ok := z.scores[member]
	if !ok {
		return false
	}
	delete(z.scores, member)
	idx := z.search(score, member)
	z.ordered = append(z.ordered[:idx], z.ordered[idx+1:]...)
	return true
}

func (z *zset) score(member string) (float64, bool) {
	s, ok := z.scores[member]
	return s, ok
}

func (z *zset) rangeByScore(min, max float64) []ZMember {
	lo := sort.Search(len(z.ordered), func(i int) bool { return z.ordered[i].Score >= min })
	hi := sort.Search(len(z.ordered), func(i int) bool { return z.ordered[i].Score > max })
	if lo >= hi {
		return nil
	}
	out := make([]ZMember, hi-lo)
	copy(out, z.ordered[lo:hi])
	return out
}
