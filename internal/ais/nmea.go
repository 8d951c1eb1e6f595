package ais

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxPayloadChars keeps sentences within the NMEA 0183 82-character
// line limit; longer messages (type 5) are split into fragments.
const maxPayloadChars = 56

// Sentence is one parsed AIVDM/AIVDO sentence.
type Sentence struct {
	Talker    string // "AIVDM" or "AIVDO"
	FragCount int
	FragNum   int
	MsgID     string // sequential message id linking fragments ("" for single)
	Channel   string // radio channel, "A" or "B"
	Payload   string
	FillBits  int
}

// checksum computes the NMEA XOR checksum over the body (between '!'
// and '*').
func checksum(body string) byte {
	var c byte
	for i := 0; i < len(body); i++ {
		c ^= body[i]
	}
	return c
}

// formatSentence renders a Sentence in NMEA wire form.
func formatSentence(s Sentence) string {
	body := fmt.Sprintf("%s,%d,%d,%s,%s,%s,%d",
		s.Talker, s.FragCount, s.FragNum, s.MsgID, s.Channel, s.Payload, s.FillBits)
	return fmt.Sprintf("!%s*%02X", body, checksum(body))
}

// ParseSentence parses and checksum-validates one NMEA line. The happy
// path is allocation-free: every Sentence field is a substring of the
// input line and the comma split indexes in place instead of building a
// field slice — a live receiver feed parses millions of lines, so the
// parse cost is pure CPU with no garbage.
func ParseSentence(line string) (Sentence, error) {
	line = strings.TrimSpace(line)
	if len(line) < 10 || line[0] != '!' {
		return Sentence{}, fmt.Errorf("ais: not an encapsulated sentence: %q", line)
	}
	star := strings.LastIndexByte(line, '*')
	if star < 0 || star+3 > len(line) {
		return Sentence{}, fmt.Errorf("ais: missing checksum: %q", line)
	}
	body := line[1:star]
	wantSum, err := strconv.ParseUint(line[star+1:star+3], 16, 8)
	if err != nil {
		return Sentence{}, fmt.Errorf("ais: bad checksum field: %q", line)
	}
	if got := checksum(body); got != byte(wantSum) {
		return Sentence{}, fmt.Errorf("ais: checksum mismatch: got %02X want %02X", got, wantSum)
	}
	var fields [7]string
	n := 0
	rest := body
	for n < 6 {
		comma := strings.IndexByte(rest, ',')
		if comma < 0 {
			break
		}
		fields[n] = rest[:comma]
		rest = rest[comma+1:]
		n++
	}
	if n < 6 || strings.IndexByte(rest, ',') >= 0 {
		return Sentence{}, fmt.Errorf("ais: expected 7 fields: %q", line)
	}
	fields[6] = rest
	if fields[0] != "AIVDM" && fields[0] != "AIVDO" {
		return Sentence{}, fmt.Errorf("ais: unsupported talker %q", fields[0])
	}
	fragCount, err1 := strconv.Atoi(fields[1])
	fragNum, err2 := strconv.Atoi(fields[2])
	fill, err3 := strconv.Atoi(fields[6])
	if err1 != nil || err2 != nil || err3 != nil {
		return Sentence{}, fmt.Errorf("ais: malformed numeric fields: %q", line)
	}
	if fragCount < 1 || fragNum < 1 || fragNum > fragCount || fill < 0 || fill > 5 {
		return Sentence{}, fmt.Errorf("ais: inconsistent fragment fields: %q", line)
	}
	return Sentence{
		Talker:    fields[0],
		FragCount: fragCount,
		FragNum:   fragNum,
		MsgID:     fields[3],
		Channel:   fields[4],
		Payload:   fields[5],
		FillBits:  fill,
	}, nil
}

// Marshal encodes an AIS message into one or more AIVDM sentences.
// msgID links the fragments of multi-sentence messages (callers supply
// a small rolling counter, as AIS transponders do).
func Marshal(m Message, channel string, msgID int) ([]string, error) {
	var (
		buf  []byte
		nbit int
		err  error
	)
	switch v := m.(type) {
	case PositionReport:
		buf, nbit, err = EncodePosition(v)
	case StaticVoyage:
		buf, nbit, err = EncodeStatic(v)
	default:
		return nil, fmt.Errorf("ais: cannot marshal %T", m)
	}
	if err != nil {
		return nil, err
	}
	payload, fill := armorEncode(buf, nbit)
	if len(payload) <= maxPayloadChars {
		return []string{formatSentence(Sentence{
			Talker: "AIVDM", FragCount: 1, FragNum: 1,
			Channel: channel, Payload: payload, FillBits: fill,
		})}, nil
	}
	// Fragments: every sentence but the last carries 0 fill bits because
	// fragments split on 6-bit character boundaries.
	id := strconv.Itoa(msgID % 10)
	var out []string
	total := (len(payload) + maxPayloadChars - 1) / maxPayloadChars
	for i := 0; i < total; i++ {
		lo := i * maxPayloadChars
		hi := lo + maxPayloadChars
		if hi > len(payload) {
			hi = len(payload)
		}
		f := 0
		if i == total-1 {
			f = fill
		}
		out = append(out, formatSentence(Sentence{
			Talker: "AIVDM", FragCount: total, FragNum: i + 1, MsgID: id,
			Channel: channel, Payload: payload[lo:hi], FillBits: f,
		}))
	}
	return out, nil
}

// Assembler reassembles multi-fragment AIVDM messages. It is safe for
// concurrent use and evicts stale partial messages after a timeout.
type Assembler struct {
	mu      sync.Mutex
	pending map[string]*partial
	maxAge  time.Duration
}

type partial struct {
	fragments []string
	fills     []int
	got       int
	createdAt time.Time
}

// NewAssembler creates an assembler that drops incomplete messages
// older than 30 seconds.
func NewAssembler() *Assembler {
	return &Assembler{pending: make(map[string]*partial), maxAge: 30 * time.Second}
}

// Push feeds one parsed sentence. When the sentence completes a
// message, the decoded Message is returned; otherwise Message is nil.
func (a *Assembler) Push(s Sentence, receivedAt time.Time) (Message, error) {
	if s.FragCount == 1 {
		return decodePayload(s.Payload, s.FillBits, receivedAt)
	}
	key := s.Channel + "/" + s.MsgID + "/" + strconv.Itoa(s.FragCount)
	a.mu.Lock()
	p, ok := a.pending[key]
	if !ok {
		p = &partial{
			fragments: make([]string, s.FragCount),
			fills:     make([]int, s.FragCount),
			createdAt: receivedAt,
		}
		a.pending[key] = p
	}
	if p.fragments[s.FragNum-1] == "" {
		p.got++
	}
	p.fragments[s.FragNum-1] = s.Payload
	p.fills[s.FragNum-1] = s.FillBits
	complete := p.got == s.FragCount
	if complete {
		delete(a.pending, key)
	}
	a.evictStaleLocked(receivedAt)
	a.mu.Unlock()
	if !complete {
		return nil, nil
	}
	return decodePayload(strings.Join(p.fragments, ""), p.fills[s.FragCount-1], receivedAt)
}

func (a *Assembler) evictStaleLocked(now time.Time) {
	for k, p := range a.pending {
		if now.Sub(p.createdAt) > a.maxAge {
			delete(a.pending, k)
		}
	}
}

// payloadBufPool recycles the de-armored bit buffers of decodePayload:
// the decoder copies everything it keeps (strings are materialised,
// numeric fields are values), so the buffer can be returned to the pool
// as soon as Decode finishes — one sentence, zero buffer garbage.
var payloadBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64) // type 5 payloads need ~53 bytes
		return &b
	},
}

func decodePayload(payload string, fillBits int, receivedAt time.Time) (Message, error) {
	bp := payloadBufPool.Get().(*[]byte)
	buf, nbit, err := armorDecodeInto(*bp, payload, fillBits)
	*bp = buf
	if err != nil {
		payloadBufPool.Put(bp)
		return nil, err
	}
	m, err := Decode(buf, nbit, receivedAt)
	payloadBufPool.Put(bp)
	return m, err
}

// MarshalClassBStatic encodes the static data of a class B vessel as
// its two type 24 sentences (part A: name; part B: type, callsign,
// dimensions). Each part fits a single sentence.
func MarshalClassBStatic(s StaticVoyage, channel string) ([]string, error) {
	bufA, nbitA, err := EncodeStatic24A(s)
	if err != nil {
		return nil, err
	}
	bufB, nbitB, err := EncodeStatic24B(s)
	if err != nil {
		return nil, err
	}
	payloadA, fillA := armorEncode(bufA, nbitA)
	payloadB, fillB := armorEncode(bufB, nbitB)
	return []string{
		formatSentence(Sentence{Talker: "AIVDM", FragCount: 1, FragNum: 1,
			Channel: channel, Payload: payloadA, FillBits: fillA}),
		formatSentence(Sentence{Talker: "AIVDM", FragCount: 1, FragNum: 1,
			Channel: channel, Payload: payloadB, FillBits: fillB}),
	}, nil
}
