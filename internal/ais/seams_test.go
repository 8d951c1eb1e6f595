package ais

import "time"

// Test conveniences over the decoder: production code decodes through
// an Assembler fed sentence by sentence and never calls these.

// armorDecode converts an NMEA payload back into packed bits. fillBits
// must be the sentence's fill field (0..5); it is validated here too so
// the decoder is safe on inputs that bypassed sentence parsing.
func armorDecode(payload string, fillBits int) ([]byte, int, error) {
	return armorDecodeInto(nil, payload, fillBits)
}

// Pending returns the number of incomplete multi-fragment messages.
func (a *Assembler) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// DecodeSentences is a convenience for the common single-source case:
// it parses each line in order through a private assembler and returns
// every completed message.
func DecodeSentences(lines []string, receivedAt time.Time) ([]Message, error) {
	asm := NewAssembler()
	var out []Message
	for _, line := range lines {
		s, err := ParseSentence(line)
		if err != nil {
			return out, err
		}
		m, err := asm.Push(s, receivedAt)
		if err != nil {
			return out, err
		}
		if m != nil {
			out = append(out, m)
		}
	}
	return out, nil
}
