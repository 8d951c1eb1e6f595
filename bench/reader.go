package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// reader is the API client: one goroutine issuing GETs open loop over
// one keep-alive loopback connection, each timed from its due time.
type reader struct {
	client *http.Client
	rate   int
	// plan is the seeded weighted cycle of requests.
	plan []readReq

	latMS   []float64            // due → full body read
	svcUS   map[string][]float64 // request start → full body read, per kind
	bytes   int64
	issued  int64
	non200  int64
	badBody int64
	buf     bytes.Buffer
}

type readReq struct {
	kind string
	url  string
	json bool
}

// newReader expands the workload's mix into a shuffled request cycle.
func newReader(s Spec, in *input, base string, pair [2]string, seed int64) *reader {
	r := &reader{client: httpClient(), rate: s.ReadRate, svcUS: map[string][]float64{}}
	box := map[string]string{
		"global": "24,-42,79,69",
		"europe": "35,22.5,41,28.3",
		"strait": "1.1,103.6,1.3,104.0",
	}[s.World]
	rng := rand.New(rand.NewSource(seed))
	// Several passes over the mix, so point reads rotate over vessels.
	for pass := 0; pass < 8; pass++ {
		for _, m := range s.Mix {
			for w := 0; w < m.Weight; w++ {
				q := readReq{kind: m.Kind, json: true}
				switch m.Kind {
				case "vessels":
					q.url = base + "/api/vessels"
				case "vessels_limit":
					q.url = base + "/api/vessels?limit=50"
				case "vessels_bbox":
					q.url = base + "/api/vessels?bbox=" + box
				case "events":
					q.url = base + "/api/events"
				case "regions":
					q.url = base + "/api/regions"
				case "congestion":
					q.url = base + "/api/congestion"
				case "vessel_one":
					q.url = base + "/api/vessels/" + in.keys[in.sampledMMSIs[rng.Intn(len(in.sampledMMSIs))]]
				case "route":
					q.url = fmt.Sprintf("%s/api/route?from=%s&to=%s&type=70&length=190&draught=10", base, pair[0], pair[1])
				case "metrics":
					q.url, q.json = base+"/metrics", false
				}
				r.plan = append(r.plan, q)
			}
		}
	}
	rng.Shuffle(len(r.plan), func(i, j int) { r.plan[i], r.plan[j] = r.plan[j], r.plan[i] })
	return r
}

// run issues the plan from start until end.
func (r *reader) run(start, end time.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	interval := time.Second / time.Duration(r.rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		q := r.plan[k%len(r.plan)]
		r.issued++
		t0 := time.Now()
		resp, err := r.client.Get(q.url)
		if err != nil {
			r.non200++
			continue
		}
		r.buf.Reset()
		_, err = io.Copy(&r.buf, resp.Body)
		resp.Body.Close()
		done := time.Now()
		r.latMS = append(r.latMS, float64(done.Sub(due))/1e6)
		r.svcUS[q.kind] = append(r.svcUS[q.kind], float64(done.Sub(t0))/1e3)
		r.bytes += int64(r.buf.Len())
		switch {
		case err != nil || resp.StatusCode != http.StatusOK:
			r.non200++
		case !plausibleBody(r.buf.Bytes(), q.json, k%16 == 0):
			r.badBody++
		}
	}
}

// plausibleBody checks a response body: every JSON body must open and
// close like a document; one in sixteen is parsed in full (parsing all
// of them would put the checker's CPU into cpu_us_per_report).
func plausibleBody(b []byte, isJSON, full bool) bool {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return false
	}
	if !isJSON {
		return bytes.Contains(b, []byte("seatwin_"))
	}
	first, last := b[0], b[len(b)-1]
	if !(first == '[' && last == ']') && !(first == '{' && last == '}') {
		return false
	}
	return !full || json.Valid(b)
}

// account folds the reader's samples into the instance result.
func (r *reader) account(res *instance) {
	res.Attempted += r.issued
	res.fail("http_non_200", r.non200)
	res.fail("http_bad_body", r.badBody)
	res.Counts["read_samples"] = int64(len(r.latMS))
	sort.Float64s(r.latMS)
	res.Metrics["api.read_p50_ms"] = percentile(r.latMS, 0.50)
	res.Metrics["api.read_p99_ms"] = percentile(r.latMS, 0.99)
	res.Info["read_p999_ms"] = percentile(r.latMS, 0.999)
	res.Info["read_max_ms"] = percentile(r.latMS, 1)
	for kind, v := range r.svcUS {
		sort.Float64s(v)
		res.Metrics["api."+kind+"_p50_us"] = percentile(v, 0.50)
	}
	if len(r.latMS) > 0 {
		res.Metrics["api.bytes_per_read"] = float64(r.bytes) / float64(len(r.latMS))
	}
}
