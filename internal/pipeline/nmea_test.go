package pipeline

import (
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
)

// ingestLine decodes one raw AIVDM sentence the way a receiver-side
// consumer does (parse, reassemble fragments) and ingests the finished
// message, if any.
func ingestLine(p *Pipeline, asm *ais.Assembler, line string, at time.Time) error {
	s, err := ais.ParseSentence(line)
	if err != nil {
		return err
	}
	msg, err := asm.Push(s, at)
	if err != nil {
		return err
	}
	if msg != nil {
		p.Ingest(msg)
	}
	return nil
}

func TestIngestNMEAWirePath(t *testing.T) {
	p := newTestPipeline(t)
	asm := ais.NewAssembler()
	world := fleetsim.NewWorld(fleetsim.Config{
		Vessels: 20, Seed: 9, Region: geo.AegeanSea, KeepSailing: true,
	})
	feed := fleetsim.NewWireFeed(world)
	lines := 0
	for lines < 2000 {
		wl, ok := feed.Next()
		if !ok {
			t.Fatal("feed dried up")
		}
		if err := ingestLine(p, asm, wl.Line, wl.At); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	p.Drain(10 * time.Second)

	s := p.Stats()
	if s.Messages == 0 {
		t.Fatal("no position reports ingested from the wire")
	}
	if s.Forecasts == 0 {
		t.Fatal("no forecasts from wire-fed reports")
	}
	// Static data flowed through too: some vessel state must carry a
	// name joined from the type 5 cache.
	named := 0
	members, _ := p.Store().ZRangeByScore("vessels:active", 0, 1e18)
	for _, m := range members {
		h, _ := p.Store().HGetAll("vessel:" + m.Member)
		if h["name"] != "" {
			named++
		}
	}
	if named == 0 {
		t.Fatal("no vessel state joined with static info from the wire")
	}
}

func TestIngestNMEAMultiFragmentStatic(t *testing.T) {
	p := newTestPipeline(t)
	sv := ais.StaticVoyage{
		MMSI: 239777000, Name: "WIRE FRAGMENT TEST", ShipType: ais.TypeTanker,
		DimBow: 100, DimStern: 50, DimPort: 15, DimStarb: 15, Draught: 12.1,
	}
	lines, err := ais.Marshal(sv, "A", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatal("type 5 should fragment")
	}
	asm := ais.NewAssembler()
	now := time.Now()
	for _, l := range lines {
		if err := ingestLine(p, asm, l, now); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain(2 * time.Second)
	got, ok := p.Static(239777000)
	if !ok || got.Name != "WIRE FRAGMENT TEST" {
		t.Fatalf("static cache after fragments: %+v ok=%v", got, ok)
	}
}

// TestStaticCacheMergesClassBParts: class B static data arrives as two
// type 24 parts (A: name; B: type, callsign, dimensions). The cache
// folds them into one document, and a later part A that carries only
// a name must not zero the dimensions part B supplied.
func TestStaticCacheMergesClassBParts(t *testing.T) {
	p := newTestPipeline(t)
	sv := ais.StaticVoyage{
		MMSI: 239777001, Name: "CLASS B FIRST", ShipType: ais.TypeCargo, Callsign: "SV4321",
		DimBow: 12, DimStern: 6, DimPort: 3, DimStarb: 2,
	}
	parts, err := ais.MarshalClassBStatic(sv, "B")
	if err != nil {
		t.Fatal(err)
	}
	renamed := sv
	renamed.Name = "CLASS B RENAMED"
	again, err := ais.MarshalClassBStatic(renamed, "B")
	if err != nil {
		t.Fatal(err)
	}
	asm := ais.NewAssembler()
	now := time.Now()
	for _, l := range []string{parts[0], parts[1], again[0]} { // A, B, A
		if err := ingestLine(p, asm, l, now); err != nil {
			t.Fatal(err)
		}
	}
	want := renamed
	got, ok := p.Static(sv.MMSI)
	if !ok || got != want {
		t.Fatalf("static cache after A, B, A = %+v (ok=%v), want %+v", got, ok, want)
	}
}
