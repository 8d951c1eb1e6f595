package traj

import (
	"testing"
	"time"

	"seatwin/internal/geo"
)

func TestPredictedPositionsIntoMatchesAndReuses(t *testing.T) {
	anchor := geo.Point{Lat: 37, Lon: 24}
	output := []float64{0.5, 0.25, -0.3, 0.1, 0.2, -0.4, 0, 0, 0.05, 0.05, -0.1, 0.2}
	want := PredictedPositionsInto(nil, anchor, output)

	dst := make([]geo.Point, 0, len(output)/2)
	got := PredictedPositionsInto(dst, anchor, output)
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], want[i])
		}
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("Into variant must reuse the caller's backing array")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		got = PredictedPositionsInto(got, anchor, output)
	}); allocs != 0 {
		t.Fatalf("PredictedPositionsInto allocates %v/op, want 0", allocs)
	}
}

func TestInputBufferMatchesAllocatingPath(t *testing.T) {
	buf := GetInputBuffer()
	defer PutInputBuffer(buf)
	for _, total := range []time.Duration{4 * time.Minute, 15 * time.Minute, time.Hour} {
		track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, total)
		wantIn, wantAnchor, wantOK := InputFromReports(track, 20, 30*time.Second)
		gotIn, gotAnchor, gotOK := buf.InputFromReports(track, 20, 30*time.Second)
		if gotOK != wantOK {
			t.Fatalf("total %v: ok=%v want %v", total, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if gotAnchor != wantAnchor {
			t.Fatalf("total %v: anchor mismatch", total)
		}
		if len(gotIn) != len(wantIn) {
			t.Fatalf("total %v: %d rows, want %d", total, len(gotIn), len(wantIn))
		}
		for i := range wantIn {
			for k := range wantIn[i] {
				if gotIn[i][k] != wantIn[i][k] {
					t.Fatalf("total %v row %d[%d]: %v != %v", total, i, k, gotIn[i][k], wantIn[i][k])
				}
			}
		}
	}
}

func TestInputBufferZeroAllocSteadyState(t *testing.T) {
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, time.Hour)
	buf := GetInputBuffer()
	defer PutInputBuffer(buf)
	if _, _, ok := buf.InputFromReports(track, 20, 30*time.Second); !ok {
		t.Fatal("warm-up call failed")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := buf.InputFromReports(track, 20, 30*time.Second); !ok {
			t.Fatal("steady-state call failed")
		}
	}); allocs != 0 {
		t.Fatalf("warm InputBuffer allocates %v/op, want 0", allocs)
	}
}
