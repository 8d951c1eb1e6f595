package bench

import (
	"fmt"
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
)

// line is one pre-generated NMEA sentence.
type line struct {
	text string
	// at is the simulated receive time: AIS carries only the UTC second,
	// so the decoder rebuilds the report timestamp from it.
	at time.Time
	// rep is the position report this sentence is sent with: the one it
	// completes (pos) or, for a static-voyage sentence, the next one.
	rep int32
	pos bool
}

// report is what set-up knows about one position report.
type report struct {
	mmsi    ais.MMSI
	sec     int64 // unix second of the decoded timestamp
	sampled bool  // the probe follows this vessel
}

// input is everything one instance feeds the program, made in set-up
// from the seed alone. The program sees only line.text and line.at.
type input struct {
	lines    []line
	reports  []report
	warmReps int // reports[:warmReps] are replayed in set-up
	// index maps (mmsi, second) to the report index.
	index map[uint64]int32
	// keys caches the broker key (9-digit MMSI) per vessel.
	keys map[ais.MMSI]string
	// sampledMMSIs are the vessels the probe subscribes to.
	sampledMMSIs []ais.MMSI
	vessels      int // distinct MMSIs among the reports
}

// lineOf is the index of the first sentence sent with report rep:
// lines[:lineOf(rep)] complete exactly reports[:rep].
func (in *input) lineOf(rep int) int {
	return sort.Search(len(in.lines), func(i int) bool { return int(in.lines[i].rep) >= rep })
}

func repKey(m ais.MMSI, sec int64) uint64 { return uint64(m)<<32 | uint64(uint32(sec)) }

// generate draws warm+window position reports (with their static
// sentences) from the workload's world as wire sentences, decoding each
// once to learn which report it completes. Reports that would repeat a
// vessel's previous second are left out: the vessel actor drops
// non-increasing timestamps, and every report sent must become visible.
func generate(s Spec, seed int64, windowReps int) (*input, error) {
	feed := fleetsim.NewWireFeed(s.newWorld(seed))
	total := s.WarmReports + windowReps
	in := &input{
		lines:   make([]line, 0, total+total/8),
		reports: make([]report, 0, total),
		index:   make(map[uint64]int32, total),
		keys:    make(map[ais.MMSI]string, s.Vessels),
	}
	asm := ais.NewAssembler()
	lastSec := make(map[ais.MMSI]int64, s.Vessels)
	for len(in.reports) < total {
		wl, ok := feed.Next()
		if !ok {
			return nil, fmt.Errorf("world ran dry after %d reports", len(in.reports))
		}
		sent, err := ais.ParseSentence(wl.Line)
		if err != nil {
			return nil, fmt.Errorf("generated sentence does not parse: %w", err)
		}
		msg, err := asm.Push(sent, wl.At)
		if err != nil {
			return nil, fmt.Errorf("generated sentence does not decode: %w", err)
		}
		ln := line{text: wl.Line, at: wl.At, rep: int32(len(in.reports))}
		if pr, isPos := msg.(ais.PositionReport); isPos {
			sec := pr.Timestamp.Unix()
			last, seen := lastSec[pr.MMSI]
			if seen && sec <= last {
				continue
			}
			lastSec[pr.MMSI] = sec
			// Seeded 1-in-N vessel sample: the MMSI is itself drawn from
			// the world's seeded generator.
			sampled := uint32(pr.MMSI)%uint32(s.SampleEvery) == 0
			if !seen {
				in.keys[pr.MMSI] = pr.MMSI.String()
				if sampled {
					in.sampledMMSIs = append(in.sampledMMSIs, pr.MMSI)
				}
			}
			ln.pos = true
			in.index[repKey(pr.MMSI, sec)] = ln.rep
			in.reports = append(in.reports, report{mmsi: pr.MMSI, sec: sec, sampled: sampled})
		} else if msg != nil {
			in.keys[msg.Source()] = msg.Source().String()
		}
		in.lines = append(in.lines, ln)
	}
	in.warmReps = s.WarmReports
	in.vessels = len(lastSec)
	if len(in.sampledMMSIs) == 0 {
		return nil, fmt.Errorf("no vessel fell into the 1-in-%d sample", s.SampleEvery)
	}
	return in, nil
}
