package ais

import "fmt"

// bitWriter packs big-endian bit fields into a byte-aligned buffer, the
// layout ITU-R M.1371 message bodies use.
type bitWriter struct {
	buf  []byte
	nbit int
}

// writeUint appends the low `width` bits of v, most significant first.
func (w *bitWriter) writeUint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		byteIdx := w.nbit / 8
		if byteIdx >= len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			w.buf[byteIdx] |= 1 << uint(7-w.nbit%8)
		}
		w.nbit++
	}
}

// writeInt appends a two's-complement signed field.
func (w *bitWriter) writeInt(v int64, width int) {
	w.writeUint(uint64(v)&((1<<uint(width))-1), width)
}

// writeString appends text in the AIS 6-bit character set, padded with
// '@' (value 0) to exactly chars characters.
func (w *bitWriter) writeString(s string, chars int) {
	for i := 0; i < chars; i++ {
		var c byte
		if i < len(s) {
			c = sixBitFromASCII(s[i])
		}
		w.writeUint(uint64(c), 6)
	}
}

func (w *bitWriter) bits() int { return w.nbit }

// bitReader reads big-endian bit fields.
type bitReader struct {
	buf  []byte
	pos  int
	fail bool
}

func (r *bitReader) readUint(width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		byteIdx := r.pos / 8
		if byteIdx >= len(r.buf) {
			r.fail = true
			return 0
		}
		v <<= 1
		if r.buf[byteIdx]&(1<<uint(7-r.pos%8)) != 0 {
			v |= 1
		}
		r.pos++
	}
	return v
}

func (r *bitReader) readInt(width int) int64 {
	v := r.readUint(width)
	if v&(1<<uint(width-1)) != 0 { // sign extend
		v |= ^uint64(0) << uint(width)
	}
	return int64(v)
}

func (r *bitReader) readString(chars int) string {
	out := make([]byte, 0, chars)
	for i := 0; i < chars; i++ {
		c := asciiFromSixBit(byte(r.readUint(6)))
		out = append(out, c)
	}
	// Trim trailing padding and spaces.
	end := len(out)
	for end > 0 && (out[end-1] == '@' || out[end-1] == ' ') {
		end--
	}
	return string(out[:end])
}

// sixBitFromASCII maps ASCII to the AIS 6-bit character set: '@'..'_'
// map to 0..31 and ' '..'?' map to 32..63. Unrepresentable characters
// become '@' (0). Lowercase letters are folded to uppercase.
func sixBitFromASCII(c byte) byte {
	if c >= 'a' && c <= 'z' {
		c -= 32
	}
	switch {
	case c >= 64 && c < 96:
		return c - 64
	case c >= 32 && c < 64:
		return c
	default:
		return 0
	}
}

// asciiFromSixBit is the inverse of sixBitFromASCII.
func asciiFromSixBit(v byte) byte {
	v &= 0x3f
	if v < 32 {
		return v + 64
	}
	return v
}

// armorEncode converts the packed bits into the NMEA payload alphabet
// (each character carries 6 bits), returning the payload and the count
// of fill bits appended to complete the last character.
func armorEncode(buf []byte, nbit int) (payload string, fillBits int) {
	chars := (nbit + 5) / 6
	fillBits = chars*6 - nbit
	out := make([]byte, chars)
	r := bitReader{buf: buf}
	for i := 0; i < chars; i++ {
		var v byte
		if remaining := nbit - i*6; remaining >= 6 {
			v = byte(r.readUint(6))
		} else {
			v = byte(r.readUint(remaining)) << uint(6-remaining)
			r.pos = nbit
		}
		if v < 40 {
			out[i] = v + 48
		} else {
			out[i] = v + 56
		}
	}
	return string(out), fillBits
}

// armorDecodeInto converts an NMEA payload back into packed bits,
// writing into dst (grown as needed and returned), so decode paths can
// reuse a pooled buffer instead of growing a fresh one per sentence.
// fillBits must be the sentence's fill field (0..5); it is validated
// here too so the decoder is safe on inputs that bypassed sentence
// parsing.
func armorDecodeInto(dst []byte, payload string, fillBits int) ([]byte, int, error) {
	if fillBits < 0 || fillBits > 5 {
		return dst, 0, errBadFillBits(fillBits)
	}
	w := bitWriter{buf: dst[:0]}
	for i := 0; i < len(payload); i++ {
		c := payload[i]
		var v byte
		switch {
		case c >= 48 && c < 88:
			v = c - 48
		case c >= 96 && c < 120:
			v = c - 56
		default:
			return w.buf, 0, errBadPayloadChar(c)
		}
		w.writeUint(uint64(v), 6)
	}
	nbit := w.bits() - fillBits
	if nbit < 0 {
		nbit = 0
	}
	return w.buf, nbit, nil
}

type errBadPayloadChar byte

func (e errBadPayloadChar) Error() string {
	return "ais: invalid payload character " + string(rune(e))
}

type errBadFillBits int

func (e errBadFillBits) Error() string {
	return fmt.Sprintf("ais: fill bits %d out of range", int(e))
}
