package checkpoint

import (
	"strings"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/kvstore"
)

var ckt0 = time.Date(2023, 9, 18, 9, 0, 0, 123456789, time.UTC)

func window(mmsi ais.MMSI, n int) Snapshot {
	s := Snapshot{MMSI: mmsi}
	for i := 0; i < n; i++ {
		s.Reports = append(s.Reports, ais.PositionReport{
			MMSI:      mmsi,
			Class:     ais.ClassA,
			Status:    ais.StatusUnderWayEngine,
			Lat:       37.5 + float64(i)*0.001234567890123,
			Lon:       24.5 + float64(i)*0.000987654321098,
			SOG:       12.3,
			COG:       90.5,
			Heading:   91,
			Timestamp: ckt0.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	return s
}

// encode renders s through Encoder.Fields as the field map HGetAll
// would read back.
func encode(s Snapshot) map[string]string {
	var enc Encoder
	m := make(map[string]string)
	for _, f := range enc.Fields(s) {
		m[f.Name] = f.Value
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := window(239000001, 20)
	out, err := Decode(in.MMSI, encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) != len(in.Reports) {
		t.Fatalf("reports %d, want %d", len(out.Reports), len(in.Reports))
	}
	for i := range in.Reports {
		a, b := in.Reports[i], out.Reports[i]
		// Floats must round-trip exactly so the rehydrated window feeds
		// the model bit-identical inputs.
		if a.Lat != b.Lat || a.Lon != b.Lon || a.SOG != b.SOG || a.COG != b.COG {
			t.Fatalf("report %d floats: %+v vs %+v", i, a, b)
		}
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("report %d timestamp: %v vs %v (nanoseconds must survive)", i, a.Timestamp, b.Timestamp)
		}
		if a.Status != b.Status || a.Class != b.Class || a.Heading != b.Heading {
			t.Fatalf("report %d enums: %+v vs %+v", i, a, b)
		}
	}
	if !out.LastSeen().Equal(in.LastSeen()) {
		t.Fatalf("last seen %v, want %v", out.LastSeen(), in.LastSeen())
	}
}

func TestEncodeEmptySnapshot(t *testing.T) {
	out, err := Decode(5, encode(Snapshot{MMSI: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) != 0 || !out.LastSeen().IsZero() {
		t.Fatalf("empty snapshot decoded as %+v", out)
	}
}

func TestDecodeRefusesUnknownVersion(t *testing.T) {
	fields := encode(window(1, 3))
	fields["v"] = "99"
	if _, err := Decode(1, fields); err == nil {
		t.Fatal("future version must be refused, not misread")
	}
}

func TestDecodeRefusesCorruptFields(t *testing.T) {
	for name, mutate := range map[string]func(map[string]string){
		"bad version":    func(f map[string]string) { f["v"] = "x" },
		"bad count":      func(f map[string]string) { f["n"] = "-1" },
		"count mismatch": func(f map[string]string) { f["n"] = "7" },
		"truncated hist": func(f map[string]string) { f["hist"] = f["hist"][:len(f["hist"])/2] },
		"bad float":      func(f map[string]string) { f["hist"] = strings.Replace(f["hist"], "37.5", "noap", 1) },
		"unordered": func(f map[string]string) {
			parts := strings.Split(f["hist"], ";")
			parts[1] = parts[0]
			f["hist"] = strings.Join(parts, ";")
		},
		"missing version": func(f map[string]string) { delete(f, "v") },
	} {
		fields := encode(window(1, 3))
		mutate(fields)
		if _, err := Decode(1, fields); err == nil {
			t.Errorf("%s: corrupt checkpoint must fail decode", name)
		}
	}
}

func TestSaveLoadDeleteAgainstStore(t *testing.T) {
	st := kvstore.New()
	defer st.Close()

	if _, ok, err := Load(st, 123); err != nil || ok {
		t.Fatalf("load before save: ok=%v err=%v", ok, err)
	}
	var enc Encoder
	in := window(123, 10)
	if _, err := st.HSetFields(Key(123), enc.Fields(in)); err != nil {
		t.Fatal(err)
	}
	out, ok, err := Load(st, 123)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if len(out.Reports) != 10 || !out.LastSeen().Equal(in.LastSeen()) {
		t.Fatalf("loaded %+v", out)
	}
	// A newer window overwrites in place (same key, batched write).
	if _, err := st.HSetFields(Key(123), enc.Fields(window(123, 12))); err != nil {
		t.Fatal(err)
	}
	out, _, _ = Load(st, 123)
	if len(out.Reports) != 12 {
		t.Fatalf("overwrite kept %d reports", len(out.Reports))
	}
	st.Del(Key(123))
	if _, ok, _ := Load(st, 123); ok {
		t.Fatal("Load found a deleted checkpoint")
	}
}

func TestLoadSurfacesCorruption(t *testing.T) {
	st := kvstore.New()
	defer st.Close()
	if _, err := st.HSetMulti(Key(9), map[string]string{"v": "1", "n": "2", "hist": "garbage"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Load(st, 9); err == nil || ok {
		t.Fatalf("corrupt checkpoint: ok=%v err=%v (want error so callers cold-start)", ok, err)
	}
}

// TestEncoderFieldsPinned pins the checkpoint format: a fixed window
// must encode to exactly these bytes, so a change to the encoding
// cannot pass unnoticed (stored checkpoints must stay readable). It
// also exercises buffer reuse — later, different snapshots through the
// same Encoder must not be corrupted by earlier ones.
func TestEncoderFieldsPinned(t *testing.T) {
	var enc Encoder
	pinned := []kvstore.Field{
		{Name: "v", Value: "1"},
		{Name: "n", Value: "2"},
		{Name: "last_ts", Value: "1695027630123456789"},
		{Name: "hist", Value: "1695027600123456789,37.5,24.5,12.3,90.5,91,0,0;" +
			"1695027630123456789,37.50123456789012,24.500987654321097,12.3,90.5,91,0,0"},
	}
	for _, n := range []int{48, 2, 3, 0} {
		in := window(ais.MMSI(239000001+n), n)
		fields := enc.Fields(in)
		if n == 2 {
			if len(fields) != len(pinned) {
				t.Fatalf("%d fields, want %d", len(fields), len(pinned))
			}
			for i, f := range fields {
				if f != pinned[i] {
					t.Fatalf("field %d = %q: %q, want %q: %q", i, f.Name, f.Value, pinned[i].Name, pinned[i].Value)
				}
			}
		}
		got := make(map[string]string, len(fields))
		for _, f := range fields {
			got[f.Name] = f.Value
		}
		out, err := Decode(in.MMSI, got)
		if err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if len(out.Reports) != n || !out.LastSeen().Equal(in.LastSeen()) {
			t.Fatalf("n=%d round trip: %d reports, last %v", n, len(out.Reports), out.LastSeen())
		}
	}
}
