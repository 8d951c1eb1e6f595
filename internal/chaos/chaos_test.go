package chaos

import (
	"errors"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/events"
	"seatwin/internal/kvstore"
)

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("error=0.1,latency=5ms,panic=0.001,truncate=0.02,keep=64,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Policy{ErrorRate: 0.1, PanicRate: 0.001, Latency: 5 * time.Millisecond,
		TruncateRate: 0.02, TruncateKeep: 64, Seed: 7}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if !p.Enabled() {
		t.Fatal("parsed policy must report Enabled")
	}
}

func TestParseSpecOffAndEmpty(t *testing.T) {
	for _, spec := range []string{"", "off", "  "} {
		p, err := ParseSpec(spec)
		if err != nil || p.Enabled() {
			t.Fatalf("spec %q: policy=%+v err=%v", spec, p, err)
		}
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, spec := range []string{
		"error=1.5",    // rate outside [0,1]
		"error=-0.1",   // negative rate
		"latency=-5ms", // negative latency
		"latency=nope", // unparseable duration
		"bogus=1",      // unknown key
		"error",        // not key=value
		"error=0.1,,",  // empty entry
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q must be rejected", spec)
		}
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.fault("x"); err != nil {
		t.Fatal(err)
	}
	if in.Stats() != (Stats{}) {
		t.Fatal("nil injector must be inert")
	}
}

func TestInjectorErrorRateAndStats(t *testing.T) {
	in := New(Policy{ErrorRate: 1})
	err := in.fault("op")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := in.Stats().Errors; got != 1 {
		t.Fatalf("error count = %d", got)
	}
	// Rate 0 with another fault enabled never errors.
	in = New(Policy{ErrorRate: 0, Latency: time.Nanosecond})
	for i := 0; i < 100; i++ {
		if err := in.fault("op"); err != nil {
			t.Fatal("zero error rate must never inject errors")
		}
	}
}

func TestInjectorPanics(t *testing.T) {
	in := New(Policy{PanicRate: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("panic rate 1 must panic")
		}
		if got := in.Stats().Panics; got != 1 {
			t.Fatalf("panic count = %d", got)
		}
	}()
	_ = in.fault("op")
}

func TestInjectorDeterministicSequence(t *testing.T) {
	p := Policy{ErrorRate: 0.5, Seed: 42}
	run := func() []bool {
		in := New(p)
		out := make([]bool, 50)
		for i := range out {
			out[i] = in.fault("op") != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at %d despite equal seeds", i)
		}
	}
}

func TestKVInjectsOnEveryOp(t *testing.T) {
	st := kvstore.New()
	defer st.Close()
	kv := WrapKV(st, New(Policy{ErrorRate: 1}))

	if _, err := kv.HSetFields("k", []kvstore.Field{{Name: "a", Value: "1"}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("HSetFields err = %v", err)
	}
	if _, err := kv.HGetAll("k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("HGetAll err = %v", err)
	}
	if _, err := kv.ZAdd("z", 1, "m"); !errors.Is(err, ErrInjected) {
		t.Fatalf("ZAdd err = %v", err)
	}
	if n := kv.Publish("ch", "x"); n != 0 {
		t.Fatalf("faulted Publish delivered to %d", n)
	}
	if n := kv.Del("k"); n != 0 {
		t.Fatalf("faulted Del removed %d", n)
	}
	// With chaos off the wrapper is transparent.
	kv = WrapKV(st, nil)
	if _, err := kv.HSetFields("k", []kvstore.Field{{Name: "a", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	fields, err := kv.HGetAll("k")
	if err != nil || fields["a"] != "1" {
		t.Fatalf("passthrough read: %v %v", fields, err)
	}
}

func TestProducerFaultsAndTruncates(t *testing.T) {
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	pr := WrapProducer(b, New(Policy{ErrorRate: 1}))
	if _, _, err := pr.Produce("t", "k", "v"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Produce err = %v", err)
	}

	// Truncation keeps the topic's tail; every produce fires it here.
	pr = WrapProducer(b, New(Policy{TruncateRate: 1, TruncateKeep: 2}))
	for i := 0; i < 10; i++ {
		_, off, err := pr.Produce("t", "k", i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && off != 0 {
			t.Fatalf("faulted produce appended a record (first offset %d)", off)
		}
	}
	if got := pr.in.Stats().Truncations; got != 10 {
		t.Fatalf("truncation count = %d", got)
	}
}

func TestConsumerFaultStallsWithoutLoss(t *testing.T) {
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	inner, err := b.Subscribe("t", "g")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := b.Produce("t", "k", i); err != nil {
			t.Fatal(err)
		}
	}

	c := WrapConsumer(inner, New(Policy{ErrorRate: 1}))
	recs := c.Poll(10, 0)
	if recs == nil || len(recs) != 0 {
		t.Fatalf("faulted poll = %v, want empty non-nil batch", recs)
	}
	c.Commit() // faulted: skipped

	// Chaos off again: all five records are still there — the stall
	// lost nothing.
	c = WrapConsumer(inner, nil)
	var got int
	deadline := time.Now().Add(2 * time.Second)
	for got < 5 && time.Now().Before(deadline) {
		got += len(c.Poll(10, 50*time.Millisecond))
	}
	if got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	c.Commit()
	inner.Close()
}

func TestForecasterDegradesAndPanics(t *testing.T) {
	base := events.NewKinematicForecaster()
	history := []ais.PositionReport{{
		MMSI: 1, Lat: 37, Lon: 24, SOG: 10, COG: 90,
		Timestamp: time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC),
	}}

	fc := WrapForecaster(base, New(Policy{ErrorRate: 1}))
	if _, ok := fc.ForecastTrack(history); ok {
		t.Fatal("faulted forecast must refuse (ok=false)")
	}
	if fc.Name() == base.Name() {
		t.Fatal("chaos forecaster must label itself")
	}

	fc = WrapForecaster(base, nil)
	if _, ok := fc.ForecastTrack(history); !ok {
		t.Fatal("passthrough forecast must succeed")
	}

	fc = WrapForecaster(base, New(Policy{PanicRate: 1}))
	defer func() {
		if recover() == nil {
			t.Fatal("panic rate 1 must panic through the forecaster")
		}
	}()
	fc.ForecastTrack(history)
}
