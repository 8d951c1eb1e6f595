// Package checkpoint persists the per-vessel actor state that matters
// across a process restart: the retained window of recent position
// reports each vessel actor feeds the S-VRF model. The broker already
// replays uncommitted records durably, but the in-memory history window
// behind every committed offset dies with the process — without it a
// restarted pipeline re-warms every vessel from MinLiveReports before
// the first forecast. A checkpoint closes that gap: vessel actors
// snapshot their window into the kvstore through one batched
// HSetFields write, and a respawning actor rehydrates from the
// store so its first post-restart report forecasts immediately.
//
// Replayed broker records are deduplicated against the checkpoint's
// last-seen timestamp: the vessel actor drops any report not strictly
// newer than the tail of its (restored) history, so at-least-once
// redelivery of already-checkpointed reports is a no-op.
//
// The encoding is a versioned field map (one kvstore hash per vessel):
// unknown versions are refused rather than misread, and timestamps are
// kept at nanosecond precision so the replay dedup comparison is exact.
package checkpoint

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/kvstore"
)

// Version is the current encoding version, stored in every checkpoint.
const Version = 1

// KeyPrefix namespaces checkpoint hashes in the store.
const KeyPrefix = "ckpt:"

// Key returns the store key of a vessel's checkpoint hash.
func Key(mmsi ais.MMSI) string { return KeyPrefix + mmsi.String() }

// Store is the slice of the kvstore surface Load needs; both
// *kvstore.Store and the chaos fault-injection wrapper satisfy it.
type Store interface {
	HGetAll(key string) (map[string]string, error)
}

// Snapshot is one vessel's checkpointed state: the retained report
// window, time-ordered, newest last.
type Snapshot struct {
	MMSI    ais.MMSI
	Reports []ais.PositionReport
}

// LastSeen returns the timestamp of the newest checkpointed report —
// the watermark broker replay is deduplicated against. Zero when the
// snapshot is empty.
func (s Snapshot) LastSeen() time.Time {
	if len(s.Reports) == 0 {
		return time.Time{}
	}
	return s.Reports[len(s.Reports)-1].Timestamp
}

// AppendReport appends one report as comma-separated fields:
// unixnano,lat,lon,sog,cog,heading,status,class.
func AppendReport(b []byte, r ais.PositionReport) []byte {
	b = strconv.AppendInt(b, r.Timestamp.UnixNano(), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.Lat, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.Lon, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.SOG, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.COG, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.Heading), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ',')
	return strconv.AppendInt(b, int64(r.Class), 10)
}

// AppendHistory appends the ';'-joined encoded report window to b.
func AppendHistory(b []byte, reports []ais.PositionReport) []byte {
	for i, r := range reports {
		if i > 0 {
			b = append(b, ';')
		}
		b = AppendReport(b, r)
	}
	return b
}

// Encoder renders snapshots as versioned hash fields, into reused
// buffers so a steady checkpoint cadence costs one string conversion
// per save instead of one string per report field. Not safe for
// concurrent use; each writer actor owns one.
type Encoder struct {
	buf    []byte
	fields []kvstore.Field
}

// Fields encodes s as the field slice of one HSetFields write: "v"
// (Version), "n" (report count), "last_ts" (newest timestamp, Unix
// nanoseconds) and "hist" (AppendHistory), all four values sharing one
// backing string. Floats round-trip exactly ('g', -1) so a rehydrated
// window produces bit-identical model inputs, and timestamps carry
// nanoseconds so the replay dedup comparison in the vessel actor stays
// exact. The returned slice and its values are valid until the next
// call.
func (e *Encoder) Fields(s Snapshot) []kvstore.Field {
	b := e.buf[:0]
	b = strconv.AppendInt(b, Version, 10)
	vEnd := len(b)
	b = strconv.AppendInt(b, int64(len(s.Reports)), 10)
	nEnd := len(b)
	b = strconv.AppendInt(b, s.LastSeen().UnixNano(), 10)
	tsEnd := len(b)
	b = AppendHistory(b, s.Reports)
	e.buf = b
	doc := string(b)
	e.fields = append(e.fields[:0],
		kvstore.Field{Name: "v", Value: doc[:vEnd]},
		kvstore.Field{Name: "n", Value: doc[vEnd:nEnd]},
		kvstore.Field{Name: "last_ts", Value: doc[nEnd:tsEnd]},
		kvstore.Field{Name: "hist", Value: doc[tsEnd:]},
	)
	return e.fields
}

// Decode parses a field map written from Fields back into a snapshot for
// the given vessel. It fails on unknown versions and on any field it
// cannot parse — a corrupt checkpoint must degrade to a cold start,
// never to a half-restored window.
func Decode(mmsi ais.MMSI, fields map[string]string) (Snapshot, error) {
	v, err := strconv.Atoi(fields["v"])
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: bad version %q", fields["v"])
	}
	if v != Version {
		return Snapshot{}, fmt.Errorf("checkpoint: unsupported version %d (have %d)", v, Version)
	}
	n, err := strconv.Atoi(fields["n"])
	if err != nil || n < 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: bad report count %q", fields["n"])
	}
	s := Snapshot{MMSI: mmsi}
	if n == 0 {
		return s, nil
	}
	parts := strings.Split(fields["hist"], ";")
	if len(parts) != n {
		return Snapshot{}, fmt.Errorf("checkpoint: count %d but %d encoded reports", n, len(parts))
	}
	s.Reports = make([]ais.PositionReport, 0, n)
	var prev time.Time
	for _, part := range parts {
		r, err := decodeReport(mmsi, part)
		if err != nil {
			return Snapshot{}, err
		}
		if len(s.Reports) > 0 && !r.Timestamp.After(prev) {
			return Snapshot{}, fmt.Errorf("checkpoint: reports out of order at %v", r.Timestamp)
		}
		prev = r.Timestamp
		s.Reports = append(s.Reports, r)
	}
	return s, nil
}

func decodeReport(mmsi ais.MMSI, s string) (ais.PositionReport, error) {
	f := strings.Split(s, ",")
	if len(f) != 8 {
		return ais.PositionReport{}, fmt.Errorf("checkpoint: report needs 8 fields, got %d", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return ais.PositionReport{}, fmt.Errorf("checkpoint: bad timestamp %q", f[0])
	}
	var fl [4]float64
	for i := 0; i < 4; i++ {
		if fl[i], err = strconv.ParseFloat(f[1+i], 64); err != nil {
			return ais.PositionReport{}, fmt.Errorf("checkpoint: bad float %q", f[1+i])
		}
	}
	heading, err := strconv.Atoi(f[5])
	if err != nil {
		return ais.PositionReport{}, fmt.Errorf("checkpoint: bad heading %q", f[5])
	}
	status, err := strconv.Atoi(f[6])
	if err != nil {
		return ais.PositionReport{}, fmt.Errorf("checkpoint: bad status %q", f[6])
	}
	class, err := strconv.Atoi(f[7])
	if err != nil {
		return ais.PositionReport{}, fmt.Errorf("checkpoint: bad class %q", f[7])
	}
	return ais.PositionReport{
		MMSI:      mmsi,
		Class:     ais.Class(class),
		Status:    ais.NavStatus(status),
		Lat:       fl[0],
		Lon:       fl[1],
		SOG:       fl[2],
		COG:       fl[3],
		Heading:   heading,
		Timestamp: time.Unix(0, ns).UTC(),
	}, nil
}

// Load reads a vessel's checkpoint. ok is false when none exists; a
// present-but-undecodable checkpoint returns an error so callers can
// fall back to a cold start (and count the loss).
func Load(st Store, mmsi ais.MMSI) (Snapshot, bool, error) {
	fields, err := st.HGetAll(Key(mmsi))
	if err != nil {
		return Snapshot{}, false, err
	}
	if len(fields) == 0 {
		return Snapshot{}, false, nil
	}
	s, err := Decode(mmsi, fields)
	if err != nil {
		return Snapshot{}, false, err
	}
	return s, true, nil
}
