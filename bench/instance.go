package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/feed"
	"seatwin/internal/lvrf"
	pmetrics "seatwin/internal/metrics"
	"seatwin/internal/pipeline"
	"seatwin/internal/views"
)

// instance is the outcome of one set-up plus one measured window.
type instance struct {
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	Info     map[string]float64 `json:"info"`
	Counts   map[string]int64   `json:"counts"`
	Failures map[string]int64   `json:"failures,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Host is the host's slowdown against the reference speed, measured
	// around this instance's window (calib.go).
	Host float64 `json:"host_slowdown"`

	// Spans (traced instances) and VisMS (ascending visible latencies,
	// pooled across instances where one alone has too few) travel from
	// the instance's process to the run's; the run's report drops them.
	Spans []span    `json:"spans,omitempty"`
	VisMS []float64 `json:"vis_ms,omitempty"`
}

func (r *instance) fail(kind string, n int64) {
	if n <= 0 {
		return
	}
	r.Failures[kind] += n
	r.Failed += n
}

// check counts one yes/no output check as an operation.
func (r *instance) check(kind string, ok bool) {
	r.Attempted++
	if !ok {
		r.fail(kind, 1)
	}
}

// absorb adds another window's operations, failures and latency samples:
// the untraced half of a traced instance must not hide what went wrong in
// it, and its samples count towards the pooled percentiles.
func (r *instance) absorb(o *instance) {
	r.Attempted += o.Attempted
	for kind, n := range o.Failures {
		r.fail(kind, n)
	}
	r.Invalid = append(r.Invalid, o.Invalid...)
	r.VisMS = append(r.VisMS, o.VisMS...)
	sort.Float64s(r.VisMS)
}

func (r *instance) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// stamps are the per-report wall-clock marks (ns since the epoch) taken
// around the calls into each layer. send is always taken; the rest only
// when tracing.
type stamps struct {
	send, decoded, produced []int64 // pacer goroutine
	polled, commit          []int64 // consumer goroutines (distinct elements)
}

// counters is one snapshot of every public accessor the harness reads.
type counters struct {
	at  time.Time
	cpu time.Duration
	ps  pipeline.Stats
	hs  feed.Stats
	vs  views.Stats
	ms  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot reads every counter. Reading them is not free (the latency
// summaries sort their reservoirs), so the clock and CPU marks sit on
// the window side of the reads: last when opening, first when closing.
func snapshot(r *rig, opening bool) counters {
	var c counters
	if !opening {
		c.at, c.cpu = time.Now(), cpuTime()
	}
	c.ps, c.hs, c.vs = r.p.Stats(), r.hub.Snapshot(), r.views.Stats()
	runtime.ReadMemStats(&c.ms)
	if opening {
		c.at, c.cpu = time.Now(), cpuTime()
	}
	return c
}

// deltaMean is the mean of the observations a latency summary gained
// between two snapshots.
func deltaMean(a, b pmetrics.Snapshot) time.Duration {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return time.Duration((int64(b.Mean)*b.Count - int64(a.Mean)*a.Count) / n)
}

// percentile of an ascending slice, nearest-rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// peaks are the sampled high-water marks of a window.
type peaks struct {
	heapBytes uint64
	lag       int64
	queued    int64
	live      int64
}

// watch samples the heap every 10 ms (runtime/metrics: no stop-the-
// world) and, when tracing, the broker lag, mailbox depth and live
// actors at 10 Hz, until stop closes.
func watch(r *rig, traced bool, stop <-chan struct{}, out *peaks, wg *sync.WaitGroup) {
	defer wg.Done()
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		metrics.Read(sample)
		if inuse := sample[0].Value.Uint64() + sample[1].Value.Uint64(); inuse > out.heapBytes {
			out.heapBytes = inuse
		}
		if traced && n%10 == 0 {
			var lag int64
			for _, gl := range r.br.GroupLags() {
				if gl.Topic == topic && gl.Group == group {
					lag = gl.Lag
				}
			}
			out.lag = max(out.lag, lag)
			out.queued = max(out.queued, r.p.System().QueuedMessages())
			out.live = max(out.live, r.p.System().LiveActors())
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// tracedConsumer decorates the consumer handed to ConsumeLoop: while on
// is set it stamps Poll's return and Commit's entry on every position
// report of the batch. The gap between the two is IngestBatch.
type tracedConsumer struct {
	c       *broker.Consumer
	in      *input
	st      *stamps
	on      *atomic.Bool
	pending []int32
}

func (t *tracedConsumer) Poll(max int, wait time.Duration) []broker.Record {
	recs := t.c.Poll(max, wait)
	if !t.on.Load() {
		return recs
	}
	now := time.Now().UnixNano()
	for i := range recs {
		if pr, ok := recs[i].Value.(ais.PositionReport); ok {
			if idx, ok := t.in.index[repKey(pr.MMSI, pr.Timestamp.Unix())]; ok {
				t.st.polled[idx] = now
				t.pending = append(t.pending, idx)
			}
		}
	}
	return recs
}

func (t *tracedConsumer) Commit() {
	now := time.Now().UnixNano()
	for _, idx := range t.pending {
		t.st.commit[idx] = now
	}
	t.pending = t.pending[:0]
	t.c.Commit()
}

// feedLines decodes and produces lines[from:to], the production ingest
// edge: ParseSentence → Assembler.Push → Produce keyed by MMSI. before,
// when non-nil, is called once ahead of each report's sentences (its
// statics ride with it): it paces or gates, and returning false ends the
// feed. Stage stamps are taken when traced. fromRep is the report
// lines[from] belongs to. It returns how many sentences failed to decode
// or produce and the index after the last report sent.
func feedLines(r *rig, in *input, st *stamps, fromRep, from, to int, traced bool, before func(rep int32) bool) (errs int64, sent int) {
	asm := ais.NewAssembler()
	held := int32(-1)
	sent = fromRep
	for li := from; li < to; li++ {
		ln := &in.lines[li]
		if before != nil && ln.rep != held {
			if held = ln.rep; !before(held) {
				return errs, sent
			}
		}
		t0 := time.Now().UnixNano()
		s, err := ais.ParseSentence(ln.text)
		if err != nil {
			errs++
			continue
		}
		msg, err := asm.Push(s, ln.at)
		if err != nil {
			errs++
			continue
		}
		if msg == nil {
			continue
		}
		var t1 int64
		if traced {
			t1 = time.Now().UnixNano()
		}
		if _, _, err := r.br.Produce(topic, in.keys[msg.Source()], msg); err != nil {
			errs++
			continue
		}
		if ln.pos {
			st.send[ln.rep] = t0
			if traced {
				st.decoded[ln.rep] = t1
				st.produced[ln.rep] = time.Now().UnixNano()
			}
			sent = int(ln.rep) + 1
		}
	}
	return errs, sent
}

// onOwnThread runs fn on a goroutine wired to an OS thread of its own
// with tight timer slack, and waits for it: the pacing loop sleeps in the
// kernel, not in the Go scheduler. The thread dies with the goroutine.
func onOwnThread(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		tightenTimerSlack()
		fn()
	}()
	<-done
}

// setup is one composed, warmed-up instance of the program with its
// inputs, the probe attached: what a measured window runs on.
type setup struct {
	s    Spec
	seed int64
	in   *input
	st   *stamps
	rig  *rig
	pr   *probe
	pair [2]string // the port pair /api/route is asked about
	// tracing switches the consumers' stamps on for a traced window.
	tracing atomic.Bool
	took    time.Duration
	// host holds the host-speed measurements taken around the windows
	// (calib.go): one when set-up is done, one after the last window.
	host []hostSample
}

// newSetup performs one full set-up: generate, train, wire, replay the
// warm-up unpaced and drain, attach the probe. traced reserves the stage
// stamps and installs the consumer decorator.
func newSetup(s Spec, seed int64, window time.Duration, traced bool) (*setup, error) {
	begin := time.Now()
	u := &setup{s: s, seed: seed}
	windowReps := int(float64(s.Rate) * window.Seconds())
	if s.Rate == 0 {
		windowReps = int(float64(s.FloodBudget) * window.Seconds())
	}
	var err error
	if u.in, err = generate(s, seed, windowReps); err != nil {
		return nil, err
	}
	model, err := trainSVRF(seed, s.Smoke)
	if err != nil {
		return nil, err
	}
	var route *lvrf.Model
	if s.Route {
		if route, u.pair, err = trainLVRF(seed); err != nil {
			return nil, err
		}
	}
	n := len(u.in.reports)
	u.st = &stamps{send: make([]int64, n)}
	var wrap func(*broker.Consumer) pipeline.RecordConsumer
	if traced {
		u.st.decoded, u.st.produced = make([]int64, n), make([]int64, n)
		u.st.polled, u.st.commit = make([]int64, n), make([]int64, n)
		wrap = func(c *broker.Consumer) pipeline.RecordConsumer {
			return &tracedConsumer{c: c, in: u.in, st: u.st, on: &u.tracing}
		}
	}
	if u.rig, err = newRig(s, model, route, wrap); err != nil {
		return nil, err
	}
	ready := false
	defer func() {
		if !ready {
			u.rig.close()
		}
	}()

	// Warm-up: replay unpaced through the real path, then drain, so the
	// window opens on actors that hold history and already forecast.
	warmErrs, _ := feedLines(u.rig, u.in, u.st, 0, 0, u.in.lineOf(u.in.warmReps), false, nil)
	if warmErrs > 0 {
		return nil, fmt.Errorf("warm-up: %d generated sentences failed to decode or produce", warmErrs)
	}
	if !waitConsumed(u.rig, 60*time.Second) {
		return nil, fmt.Errorf("warm-up: consumer group still lagging after 60s")
	}
	u.rig.p.Drain(30 * time.Second)
	u.rig.views.Refresh()
	if err := u.rig.attachRegionSubs(s); err != nil {
		return nil, err
	}
	if u.pr, err = newProbe(u.rig.hub, u.in); err != nil {
		return nil, err
	}
	u.took, ready = time.Since(begin), true
	u.host = append(u.host, measureHost())
	runtime.GC()
	return u, nil
}

// windowRaw is what one measured window leaves behind. It is accounted
// only after the probe and the consumers have stopped, so everything they
// wrote is safe to read.
type windowRaw struct {
	traced        bool
	from, sent    int // reports[from:sent] were sent
	start         time.Time
	interval      time.Duration // 0 under flood
	before, after counters
	pk            peaks
	rd            *reader // nil without a read mix
	decodeErrs    int64
	sampled       int64 // sampled reports among those sent
}

// window measures d seconds of traffic starting at report from.
func (u *setup) window(from int, d time.Duration, traced bool) *windowRaw {
	s, in, rig, pr := u.s, u.in, u.rig, u.pr
	w := &windowRaw{traced: traced, from: from}
	u.tracing.Store(traced)

	var bg sync.WaitGroup
	stopBG := make(chan struct{})
	bg.Add(1)
	go watch(rig, traced, stopBG, &w.pk, &bg)

	visibleBefore := pr.sampledVisible.Load()
	w.before = snapshot(rig, true)
	w.start = time.Now().Add(5 * time.Millisecond)
	end := w.start.Add(d)
	to := len(in.lines)
	if s.Rate > 0 {
		w.interval = time.Second / time.Duration(s.Rate)
		to = in.lineOf(min(from+int(float64(s.Rate)*d.Seconds()), len(in.reports)))
	}
	if s.ReadRate > 0 {
		w.rd = newReader(s, in, rig.base, u.pair, u.seed)
		bg.Add(1)
		go w.rd.run(w.start, end, &bg)
	}

	onOwnThread(func() {
		before := func(rep int32) bool {
			sleepUntil(w.start.Add(time.Duration(int(rep)-from) * w.interval))
			return true
		}
		if s.Rate == 0 {
			// Flood: unpaced until the window ends, closed by the
			// in-flight cap on sampled reports. A frame that never comes
			// must not hold the producer past the end: it is counted as
			// not visible below.
			capSampled := int64(s.InflightCap / s.SampleEvery)
			sentSampled := visibleBefore
			before = func(rep int32) bool {
				if in.reports[rep].sampled {
					for sentSampled-pr.sampledVisible.Load() >= capSampled {
						if !time.Now().Before(end) {
							return false
						}
						sleepUntil(time.Now().Add(100 * time.Microsecond))
					}
					sentSampled++
				}
				return time.Now().Before(end)
			}
			sleepUntil(w.start)
		}
		w.decodeErrs, w.sent = feedLines(rig, in, u.st, from, in.lineOf(from), to, traced, before)
	})
	lastSend := time.Now()

	// Every sampled report must surface; allow the tail two seconds.
	for i := from; i < w.sent; i++ {
		if in.reports[i].sampled {
			w.sampled++
		}
	}
	for deadline := lastSend.Add(2 * time.Second); pr.sampledVisible.Load() < visibleBefore+w.sampled && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	rig.p.Drain(10 * time.Second)
	w.after = snapshot(rig, false)
	close(stopBG)
	bg.Wait()
	return w
}

// dueNs is what report i's latency is measured from: the schedule when
// paced (open loop), the produce call itself under flood.
func (u *setup) dueNs(w *windowRaw, i int) int64 {
	if w.interval > 0 {
		return w.start.Add(time.Duration(i-w.from) * w.interval).UnixNano()
	}
	return u.st.send[i]
}

// account turns a finished window into metrics and failures. Call it
// after the probe and the consumers have stopped.
func (u *setup) account(w *windowRaw) (*instance, error) {
	in, st, pr := u.in, u.st, u.pr
	res := &instance{
		Traced:   w.traced,
		Metrics:  map[string]float64{},
		Info:     map[string]float64{},
		Counts:   map[string]int64{},
		Failures: map[string]int64{},
	}
	nReports := w.after.ps.Messages - w.before.ps.Messages
	if nReports <= 0 || w.sent <= w.from {
		return nil, fmt.Errorf("window moved no reports (%d of %d generated reports were left)", len(in.reports)-w.from, len(in.reports))
	}
	if w.interval == 0 && w.sent == len(in.reports) && !u.s.Smoke {
		res.invalid("flood ran out of generated reports before the window ended: raise FloodBudget above %d/s", u.s.FloodBudget)
	}
	elapsed := w.after.at.Sub(time.Unix(0, st.send[w.from])).Seconds()
	res.Counts["reports_sent"] = int64(w.sent - w.from)
	res.Counts["reports_ingested"] = nReports
	res.Counts["sampled_reports"] = w.sampled

	// Visible latency, per sampled report.
	var vis, late []float64
	var missing, dup int64
	for i := w.from; i < w.sent; i++ {
		due := u.dueNs(w, i)
		if w.interval > 0 {
			late = append(late, float64(st.send[i]-due)/1e3)
		}
		if !in.reports[i].sampled {
			continue
		}
		switch {
		case pr.seen[i] == 0:
			missing++
		case pr.seen[i] > 1:
			dup += int64(pr.seen[i] - 1)
			fallthrough
		default:
			vis = append(vis, float64(pr.visibleAt[i]-due)/1e6)
		}
	}
	sort.Float64s(vis)
	sort.Float64s(late)
	res.Attempted += w.sampled
	res.fail("report_not_visible", missing)
	res.fail("duplicate_frame", dup)
	res.fail("decode_error", w.decodeErrs)
	res.fail("probe_ring_drop", w.after.hs.Dropped-w.before.hs.Dropped)
	res.fail("dead_letter", int64(w.after.ps.DeadLetter-w.before.ps.DeadLetter))
	res.Counts["visible_samples"] = int64(len(vis))
	res.VisMS = vis

	cpuUS := float64((w.after.cpu - w.before.cpu).Microseconds()) / float64(nReports)
	res.Metrics["reports_per_s"] = float64(nReports) / elapsed
	res.Metrics["cpu_us_per_report"] = cpuUS
	res.Metrics["visible_p50_ms"] = percentile(vis, 0.50)
	res.Metrics["pipeline.visible_p90_ms"] = percentile(vis, 0.90)
	res.Metrics["pipeline.visible_p99_ms"] = percentile(vis, 0.99)
	res.Metrics["heap_peak_mb"] = float64(w.pk.heapBytes) / (1 << 20)
	res.Info["visible_mean_ms"] = mean(vis)
	res.Info["visible_p999_ms"] = percentile(vis, 0.999)
	res.Info["visible_max_ms"] = percentile(vis, 1)
	if w.interval > 0 {
		res.Metrics["bench.gen_late_us"] = mean(late)
		res.Metrics["bench.gen_late_p50_us"] = percentile(late, 0.50)
		res.Metrics["bench.gen_late_p99_us"] = percentile(late, 0.99)
	}

	if w.rd != nil {
		w.rd.account(res)
	}
	accountEvents(res, u, w)
	accountLayers(res, w, nReports, cpuUS)
	checkWindow(res, u.s, w)
	if w.traced {
		accountStages(res, u, w)
	}
	return res, nil
}

// runInstance performs one full set-up and one measured window of the
// given length. A traced instance splits its window in two halves on the
// same rig, one traced and one not, so that bench.trace_overhead_share
// compares the same world in the same process (identical processes differ
// by ten times the overhead). Which half goes first alternates with the
// seed, so what drifts along a window cancels over a run's instances.
func runInstance(s Spec, seed int64, window time.Duration, traced bool) (*instance, error) {
	u, err := newSetup(s, seed, window, traced)
	if err != nil {
		return nil, err
	}
	defer u.rig.close()

	var wins []*windowRaw
	if traced {
		tracedFirst := seed%2 == 0
		first := u.window(u.in.warmReps, window/2, tracedFirst)
		runtime.GC()
		wins = []*windowRaw{first, u.window(first.sent, window/2, !tracedFirst)}
	} else {
		wins = []*windowRaw{u.window(u.in.warmReps, window, false)}
	}
	u.host = append(u.host, measureHost())
	u.pr.stop()
	u.rig.stopConsumers()

	var res, plain *instance
	for _, w := range wins {
		r, err := u.account(w)
		if err != nil {
			return nil, err
		}
		if w.traced || !traced {
			res = r
		} else {
			plain = r
		}
	}
	if plain != nil {
		res.Metrics["bench.trace_overhead_share"] = res.Metrics["cpu_us_per_report"]/plain.Metrics["cpu_us_per_report"] - 1
		res.absorb(plain)
	}
	res.Metrics["setup_s"] = u.took.Seconds()
	for _, h := range u.host {
		n := float64(len(u.host))
		res.Host += h.slowdown / n
		res.Info["host_alu_ms"] += h.aluMS / n
		res.Info["host_chase_ms"] += h.chaseMS / n
	}
	res.Metrics["bench.host_slowdown"] = res.Host
	res.fail("unmatched_frame", u.pr.unknown+u.pr.badFrame)
	checkEndState(res, u, wins[len(wins)-1].sent)
	return res, nil
}

// waitConsumed polls until the consumer group has committed everything
// produced so far.
func waitConsumed(r *rig, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		lags, err := r.br.Lag(topic, group)
		if err != nil {
			return false
		}
		var total int64
		for _, l := range lags {
			total += l
		}
		if total == 0 {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
