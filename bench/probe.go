package bench

import (
	"bytes"
	"sync/atomic"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/feed"
)

// probe is the reader the paper's claim is about: one hub subscription
// over the sampled vessels' topics and the three event classes. It
// stamps each frame on receipt and matches it to the report that caused
// it by scanning the frame bytes (no json.Unmarshal on the timed path).
type probe struct {
	in   *input
	sub  *feed.Subscription
	done chan struct{}

	// visibleAt[i] is the receipt time (ns since epoch) of report i's
	// state frame; seen[i] counts its frames. Written only by the
	// receive loop, read after wait().
	visibleAt []int64
	seen      []uint8

	// sampledVisible counts state frames of sampled reports — the
	// flood producer's in-flight bound and the window-end wait poll it.
	sampledVisible atomic.Int64

	// The fields below are written only by the receive loop and read
	// after stop().
	proximity []evStamp // proximity frames matched to their report
	evCounts  map[string]int64
	unknown   int64 // frames that match no generated report
	badFrame  int64 // frames the byte scan could not read
}

// evStamp is one proximity frame: the report that triggered it and when
// the probe received it.
type evStamp struct {
	rep int32
	at  int64
}

func newProbe(hub *feed.Hub, in *input) (*probe, error) {
	topics := make([]string, 0, len(in.sampledMMSIs)+3)
	for _, m := range in.sampledMMSIs {
		topics = append(topics, feed.TopicVesselPrefix+in.keys[m])
	}
	topics = append(topics, feed.TopicProximity, feed.TopicCollision, feed.TopicGap)
	sub, err := hub.Subscribe(topics, feed.SubOptions{Buffer: 1 << 16, Policy: feed.PolicyDropOldest})
	if err != nil {
		return nil, err
	}
	p := &probe{
		in: in, sub: sub, done: make(chan struct{}),
		visibleAt: make([]int64, len(in.reports)),
		seen:      make([]uint8, len(in.reports)),
		evCounts:  make(map[string]int64, 3),
	}
	go p.loop()
	return p, nil
}

func (p *probe) loop() {
	defer close(p.done)
	for {
		d, ok := p.sub.Recv()
		if !ok {
			return
		}
		now := time.Now().UnixNano()
		if d.Type == "state" {
			p.onState(d.Data, now)
		} else {
			p.onEvent(d.Data, now)
		}
	}
}

func (p *probe) onState(b []byte, now int64) {
	mmsi, ok1 := scanMMSI(b, `"mmsi":"`)
	sec, ok2 := scanTime(b, `"ts":"`)
	if !ok1 || !ok2 {
		p.badFrame++
		return
	}
	i, ok := p.in.index[repKey(mmsi, sec)]
	if !ok {
		p.unknown++
		return
	}
	if p.seen[i] < 255 {
		p.seen[i]++
	}
	if p.seen[i] == 1 {
		p.visibleAt[i] = now
		p.sampledVisible.Add(1)
	}
}

func (p *probe) onEvent(b []byte, now int64) {
	class, ok := scanString(b, `"class":"`)
	if !ok {
		p.badFrame++
		return
	}
	p.evCounts[string(class)]++
	if string(class) != "proximity" {
		// Collision frames carry the forecast CPA time, gap frames the
		// last-seen time: neither names the report that triggered them,
		// so they are counted, not timed.
		return
	}
	a, ok1 := scanMMSI(b, `"a":"`)
	sec, ok2 := scanTime(b, `"at":"`)
	if !ok1 || !ok2 {
		p.badFrame++
		return
	}
	// A proximity event's `a` is the reporting vessel and `at` the
	// report's own timestamp.
	i, ok := p.in.index[repKey(a, sec)]
	if !ok {
		p.unknown++
		return
	}
	p.proximity = append(p.proximity, evStamp{rep: i, at: now})
}

// stop closes the subscription and waits for the receive loop.
func (p *probe) stop() {
	p.sub.Close()
	<-p.done
}

// scanString returns the bytes between key and the next quote.
func scanString(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := b[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

func scanMMSI(b []byte, key string) (ais.MMSI, bool) {
	v, ok := scanString(b, key)
	if !ok || len(v) == 0 || len(v) > 10 {
		return 0, false
	}
	var n uint32
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint32(c-'0')
	}
	return ais.MMSI(n), true
}

// scanTime reads a second-resolution UTC RFC 3339 stamp
// ("2021-11-02T00:00:03Z") as a unix second.
func scanTime(b []byte, key string) (int64, bool) {
	v, ok := scanString(b, key)
	if !ok || len(v) != 20 || v[4] != '-' || v[7] != '-' || v[10] != 'T' || v[13] != ':' || v[16] != ':' || v[19] != 'Z' {
		return 0, false
	}
	num := func(s []byte) int {
		n := 0
		for _, c := range s {
			if c < '0' || c > '9' {
				return -1
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	y, mo, d := num(v[0:4]), num(v[5:7]), num(v[8:10])
	h, mi, s := num(v[11:13]), num(v[14:16]), num(v[17:19])
	if y < 0 || mo < 1 || mo > 12 || d < 1 || d > 31 || h < 0 || h > 23 || mi < 0 || mi > 59 || s < 0 || s > 60 {
		return 0, false
	}
	return time.Date(y, time.Month(mo), d, h, mi, s, 0, time.UTC).Unix(), true
}
