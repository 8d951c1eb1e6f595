package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
)

// accountEvents times proximity frames against the due time of the
// report that triggered them and counts the other classes.
func accountEvents(res *instance, u *setup, w *windowRaw) {
	var lat []float64
	for _, e := range u.pr.proximity {
		if i := int(e.rep); i >= w.from && i < w.sent {
			lat = append(lat, float64(e.at-u.dueNs(w, i))/1e6)
		}
	}
	sort.Float64s(lat)
	res.Counts["event_samples"] = int64(len(lat))
	res.Metrics["events.visible_p50_ms"] = percentile(lat, 0.50)
	res.Metrics["events.visible_p99_ms"] = percentile(lat, 0.99)
}

// accountLayers turns window deltas of the program's public counters
// into per-report figures.
func accountLayers(res *instance, w *windowRaw, nReports int64, cpuUS float64) {
	before, after, pk := w.before, w.after, w.pk
	per := func(n int64) float64 { return float64(n) / float64(nReports) }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	m := res.Metrics
	b, a := before.ps, after.ps

	m["pipeline.vessel_proc_us"] = us(deltaMean(b.Latency, a.Latency))
	m["actor.queued_peak"] = float64(pk.queued)
	m["actor.live_peak"] = float64(pk.live)
	m["actor.dead_letters"] = float64(a.DeadLetter - b.DeadLetter)
	m["broker.lag_peak"] = float64(pk.lag)

	m["svrf.infer_us"] = us(deltaMean(b.InferLatency, a.InferLatency))
	m["svrf.forecasts_per_report"] = per(a.Forecasts - b.Forecasts)

	pb, pa := b.ProximityDetection, a.ProximityDetection
	cb, ca := b.CollisionDetection, a.CollisionDetection
	proxUpd := pa.UpdateLatency.Count - pb.UpdateLatency.Count
	collUpd := ca.UpdateLatency.Count - cb.UpdateLatency.Count
	proxUS := us(deltaMean(pb.UpdateLatency, pa.UpdateLatency))
	collUS := us(deltaMean(cb.UpdateLatency, ca.UpdateLatency))
	m["events.prox_update_us"] = proxUS
	m["events.coll_update_us"] = collUS
	m["events.prox_updates_per_report"] = per(proxUpd)
	m["events.coll_updates_per_report"] = per(collUpd)
	cand := (pa.Candidates - pb.Candidates) + (ca.Candidates - cb.Candidates)
	checked := (pa.Checked - pb.Checked) + (ca.Checked - cb.Checked)
	if upd := proxUpd + collUpd; upd > 0 {
		m["events.candidates_per_update"] = float64(cand) / float64(upd)
	}
	if cand > 0 {
		m["events.checked_per_candidate"] = float64(checked) / float64(cand)
	}
	m["events.emitted_per_report"] = per(a.Events - b.Events)
	m["events.tracked_peak"] = float64(pa.Tracked + ca.Tracked)
	// The modelled detection cost as a share of all CPU: the number that
	// says whether a workload stresses the detectors or bypasses them.
	if cpuUS > 0 {
		m["events.detect_cpu_share"] = (proxUS*per(proxUpd) + collUS*per(collUpd)) / cpuUS
	}

	frames := after.hs.Published - before.hs.Published
	m["feed.frames_per_report"] = per(frames)
	m["feed.fanout_us"] = us(after.hs.FanoutMean) // cumulative: the hub exposes no count to difference by
	m["feed.dropped"] = float64(after.hs.Dropped - before.hs.Dropped)
	m["feed.conflated"] = float64(after.hs.Conflated - before.hs.Conflated)

	m["views.refresh_ms"] = float64(after.vs.RefreshMean) / 1e6
	m["views.epochs"] = float64(after.vs.Epoch - before.vs.Epoch)
	if e := after.vs.Epoch - before.vs.Epoch; e > 0 {
		// A reader sees a snapshot between zero and one refresh period
		// old: the mean age is half the observed period.
		m["views.staleness_ms"] = after.at.Sub(before.at).Seconds() * 1e3 / float64(e) / 2
	}

	ms0, ms1 := before.ms, after.ms
	m["runtime.alloc_bytes_per_report"] = per(int64(ms1.TotalAlloc - ms0.TotalAlloc))
	m["runtime.allocs_per_report"] = per(int64(ms1.Mallocs - ms0.Mallocs))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if wall := after.at.Sub(before.at); wall > 0 {
		m["runtime.gc_pause_share"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / float64(wall)
	}
}

// checkWindow is the per-window half of the correctness gate: the
// program's own counters must agree with what the generator sent.
func checkWindow(res *instance, s Spec, w *windowRaw) {
	sentWindow := int64(w.sent - w.from)
	messages := w.after.ps.Messages - w.before.ps.Messages
	evs := w.after.ps.Events - w.before.ps.Events
	states := (w.after.hs.Published - w.before.hs.Published) - evs
	res.Counts["state_frames_published"] = states
	res.Counts["events_logged"] = evs
	res.check("messages_ne_sent", messages == sentWindow)
	res.check("state_frames_ne_sent", states == sentWindow)
	if s.World == "global" && !s.Smoke {
		res.check("global_events_not_sparse", evs*100 < sentWindow)
	}
}

// checkEndState is the other half, taken once when the instance's last
// window has drained: every vessel among reports[:sent] is in the world
// view and in the store, and a strait has alarmed.
func checkEndState(res *instance, u *setup, sent int) {
	in, r := u.in, u.rig
	distinct := make(map[ais.MMSI]struct{}, in.vessels)
	for i := 0; i < sent; i++ {
		distinct[in.reports[i].mmsi] = struct{}{}
	}
	r.views.Refresh()
	res.check("views_vessels_ne_sent", r.views.Vessels().Len() == len(distinct))
	var unstored int64
	for m := range distinct {
		if n, err := r.store.HLen("vessel:" + in.keys[m]); err != nil || n == 0 {
			unstored++
		}
	}
	res.Attempted += int64(len(distinct))
	res.fail("vessel_hash_missing", unstored)
	res.Metrics["kvstore.keys"] = float64(len(r.store.Keys()))
	res.Counts["proximity_frames"] = u.pr.evCounts["proximity"]
	res.Counts["collision_frames"] = u.pr.evCounts["collision"]
	res.Counts["gap_frames"] = u.pr.evCounts["gap"]

	// Over the instance's whole life: a pair alarms once per cooldown, so
	// a window of a few seconds alone can legitimately see none. (A smoke
	// strait is too small and too short for any pair to alarm.)
	if u.s.World == "strait" && !u.s.Smoke {
		res.check("strait_no_proximity_event", len(r.p.EventLog().ByKind(events.KindProximity)) > 0)
		res.check("strait_no_collision_event", len(r.p.EventLog().ByKind(events.KindCollisionForecast)) > 0)
	}
}

// span is one timed interval of the trace file.
type span struct {
	ID     string `json:"id"` // mmsi:ts, shared by all spans of one report
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stageNames tile due → visible, in order.
var stageNames = []string{
	"bench.gen_late_us", "ais.decode_us", "broker.produce_us",
	"broker.wait_us", "pipeline.ingest_batch_us", "pipeline.actors_us",
}

const maxSpanReports = 500

// accountStages computes the six stage means over the sampled visible
// reports and asserts they sum to the visible mean: the stamps are taken
// at shared boundaries, so a gap means a stamp is missing or misplaced.
func accountStages(res *instance, u *setup, w *windowRaw) {
	in, pr, st := u.in, u.pr, u.st
	sums := make([]float64, len(stageNames))
	var visSum float64
	n := 0
	for i := w.from; i < w.sent; i++ {
		if !in.reports[i].sampled || pr.seen[i] == 0 {
			continue
		}
		marks := []int64{u.dueNs(w, i), st.send[i], st.decoded[i], st.produced[i], st.polled[i], st.commit[i], pr.visibleAt[i]}
		complete := true
		for _, t := range marks {
			if t == 0 {
				complete = false
			}
		}
		if !complete {
			continue
		}
		n++
		for k := range sums {
			sums[k] += float64(marks[k+1]-marks[k]) / 1e3
		}
		visSum += float64(marks[6]-marks[0]) / 1e3
		if n <= maxSpanReports {
			id := fmt.Sprintf("%s:%d", in.keys[in.reports[i].mmsi], in.reports[i].sec)
			res.Spans = append(res.Spans, span{ID: id, Name: "report", Start: marks[0], End: marks[6]})
			for k, name := range stageNames {
				res.Spans = append(res.Spans, span{ID: id, Name: name[:len(name)-3], Parent: "report", Start: marks[k], End: marks[k+1]})
			}
		}
	}
	res.Counts["stage_samples"] = int64(n)
	if n == 0 {
		res.invalid("no sampled report carries all six stage stamps")
		return
	}
	total := 0.0
	for k, name := range stageNames {
		res.Metrics[name] = sums[k] / float64(n)
		total += sums[k] / float64(n)
	}
	visMean := visSum / float64(n)
	res.Info["stage_sum_us"] = total
	res.Info["stage_visible_mean_us"] = visMean
	if math.Abs(total-visMean) > 0.02*visMean {
		res.invalid("stage means sum to %.1f µs, visible mean is %.1f µs", total, visMean)
	}
}
