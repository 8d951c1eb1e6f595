// Package chaos injects configurable faults into the seams the
// pipeline depends on — the kvstore the writer actors persist into,
// the broker produce/consume path, and the forecaster interface — so
// the durability layer (checkpoints, retry/backoff, degraded modes)
// can be exercised deliberately instead of waiting for production to
// do it. The wrappers are plain decorators over the real
// implementations: a fault is an injected error, an injected latency,
// a panic, or a broker retention truncation, each fired with a
// configured probability from a seeded source so chaos runs are
// reproducible.
//
// Faults are injected only at points where the real system could fail
// the same way, and never where they would silently lose committed
// state: a consumer fault stalls the poll (transient broker outage)
// rather than discarding fetched-but-uncommitted records, so
// at-least-once delivery holds even under chaos.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/events"
	"seatwin/internal/kvstore"
)

// ErrInjected is the error every injected fault returns; callers can
// distinguish chaos from real middleware failures in logs and tests.
var ErrInjected = errors.New("chaos: injected fault")

// Policy configures the fault mix. The zero value injects nothing.
type Policy struct {
	// ErrorRate is the probability ([0,1]) that an operation returns
	// ErrInjected (or, for error-free signatures, degrades: an empty
	// poll batch, a skipped publish, a refused forecast).
	ErrorRate float64
	// PanicRate is the probability that an operation panics — the
	// crash-shaped fault actor supervision and the consume loop's
	// recovery path must absorb.
	PanicRate float64
	// Latency is the maximum injected delay per operation, drawn
	// uniformly from [0, Latency]. Zero injects no delay.
	Latency time.Duration
	// TruncateRate is the probability that a produce additionally
	// triggers a retention truncation of the topic (the broker keeps
	// TruncateKeep records per partition), exercising the consumers'
	// offset-snap-forward path.
	TruncateRate float64
	// TruncateKeep is the per-partition retention applied when a
	// truncation fires (<=0 selects 1024).
	TruncateKeep int
	// Seed makes the fault sequence reproducible (0 selects 1).
	Seed int64
}

// Enabled reports whether the policy injects any fault at all.
func (p Policy) Enabled() bool {
	return p.ErrorRate > 0 || p.PanicRate > 0 || p.Latency > 0 || p.TruncateRate > 0
}

// ParseSpec parses the -chaos flag format: a comma-separated list of
// key=value pairs, e.g. "error=0.1,latency=5ms,panic=0.001,
// truncate=0.01,keep=2048,seed=7". Unknown keys are an error; an empty
// spec or "off" is the zero policy.
func ParseSpec(spec string) (Policy, error) {
	var p Policy
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Policy{}, fmt.Errorf("chaos: spec entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "error":
			p.ErrorRate, err = parseRate(v)
		case "panic":
			p.PanicRate, err = parseRate(v)
		case "truncate":
			p.TruncateRate, err = parseRate(v)
		case "latency":
			p.Latency, err = time.ParseDuration(v)
			if err == nil && p.Latency < 0 {
				err = fmt.Errorf("negative latency")
			}
		case "keep":
			p.TruncateKeep, err = strconv.Atoi(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return Policy{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return Policy{}, fmt.Errorf("chaos: spec %s=%q: %v", k, v, err)
		}
	}
	return p, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("rate %v outside [0,1]", v)
	}
	return v, nil
}

// Stats counts the faults an injector has fired.
type Stats struct {
	Errors      int64
	Panics      int64
	Delays      int64
	Truncations int64
}

// Injector rolls the dice for every wrapped operation. All methods are
// safe for concurrent use, and all are no-ops on a nil receiver so
// call sites don't need to special-case "chaos off".
type Injector struct {
	policy Policy

	mu  sync.Mutex
	rnd *rand.Rand

	errors      atomic.Int64
	panics      atomic.Int64
	delays      atomic.Int64
	truncations atomic.Int64
}

// New builds an injector from the policy.
func New(p Policy) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	if p.TruncateKeep <= 0 {
		p.TruncateKeep = 1024
	}
	return &Injector{policy: p, rnd: rand.New(rand.NewSource(seed))}
}

// Stats snapshots the fault counters (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Errors:      in.errors.Load(),
		Panics:      in.panics.Load(),
		Delays:      in.delays.Load(),
		Truncations: in.truncations.Load(),
	}
}

// roll draws a uniform float under the injector's lock.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	v := in.rnd.Float64()
	in.mu.Unlock()
	return v
}

// delay sleeps the injected latency, if any.
func (in *Injector) delay() {
	if in == nil || in.policy.Latency <= 0 {
		return
	}
	in.delays.Add(1)
	d := time.Duration(in.roll() * float64(in.policy.Latency))
	time.Sleep(d)
}

// fault applies latency, then possibly panics, then possibly returns
// ErrInjected — the standard prelude of every wrapped operation. op
// names the operation in the panic message.
func (in *Injector) fault(op string) error {
	if in == nil || !in.policy.Enabled() {
		return nil
	}
	in.delay()
	if in.policy.PanicRate > 0 && in.roll() < in.policy.PanicRate {
		in.panics.Add(1)
		panic("chaos: injected panic in " + op)
	}
	if in.policy.ErrorRate > 0 && in.roll() < in.policy.ErrorRate {
		in.errors.Add(1)
		return fmt.Errorf("%w (%s)", ErrInjected, op)
	}
	return nil
}

// KV wraps the state store with fault injection on the operations the
// pipeline's writer and checkpoint paths use. Reads and writes both
// fault — rehydration must survive a failing load as gracefully as a
// writer survives a failing write.
type KV struct {
	inner *kvstore.Store
	in    *Injector
}

// WrapKV decorates a store.
func WrapKV(s *kvstore.Store, in *Injector) *KV { return &KV{inner: s, in: in} }

// HSetFields implements the slice-based batched hash write with faults.
func (k *KV) HSetFields(key string, fields []kvstore.Field) (int, error) {
	if err := k.in.fault("kv.HSetFields"); err != nil {
		return 0, err
	}
	return k.inner.HSetFields(key, fields)
}

// HGetAll implements the hash read with faults.
func (k *KV) HGetAll(key string) (map[string]string, error) {
	if err := k.in.fault("kv.HGetAll"); err != nil {
		return nil, err
	}
	return k.inner.HGetAll(key)
}

// ZAdd implements the sorted-set insert with faults.
func (k *KV) ZAdd(key string, score float64, member string) (bool, error) {
	if err := k.in.fault("kv.ZAdd"); err != nil {
		return false, err
	}
	return k.inner.ZAdd(key, score, member)
}

// Publish implements the pub/sub publish; an injected fault drops the
// delivery (pub/sub is lossy by contract, so this degrades rather
// than errors).
func (k *KV) Publish(channel, payload string) int {
	if err := k.in.fault("kv.Publish"); err != nil {
		return 0
	}
	return k.inner.Publish(channel, payload)
}

// Del implements key deletion; an injected fault deletes nothing.
func (k *KV) Del(keys ...string) int {
	if err := k.in.fault("kv.Del"); err != nil {
		return 0
	}
	return k.inner.Del(keys...)
}

// Producer wraps broker produce with fault injection plus the
// partition-truncation fault (retention kicking in under a slow
// consumer — the offset-snap-forward path of §at-least-once).
type Producer struct {
	inner *broker.Broker
	in    *Injector
}

// WrapProducer decorates a broker's produce side.
func WrapProducer(b *broker.Broker, in *Injector) *Producer {
	return &Producer{inner: b, in: in}
}

// Produce appends a record, possibly faulting first and possibly
// truncating the topic's retention window afterwards.
func (p *Producer) Produce(topic, key string, value any) (int, int64, error) {
	if err := p.in.fault("broker.Produce"); err != nil {
		return 0, 0, err
	}
	part, off, err := p.inner.Produce(topic, key, value)
	if err == nil && p.in != nil && p.in.policy.TruncateRate > 0 &&
		p.in.roll() < p.in.policy.TruncateRate {
		p.in.truncations.Add(1)
		// The produce itself succeeded; a failed truncation is just a
		// chaos fault that didn't land.
		_ = p.inner.Truncate(topic, p.in.policy.TruncateKeep)
	}
	return part, off, err
}

// Consumer wraps a broker consumer. An injected error stalls the poll
// (an empty batch, as a broker outage would) instead of discarding
// fetched records — dropping a batch the inner consumer has already
// advanced past would turn at-least-once into at-most-once. Commit
// faults skip the commit, which only widens redelivery.
type Consumer struct {
	inner *broker.Consumer
	in    *Injector
}

// WrapConsumer decorates a consumer.
func WrapConsumer(c *broker.Consumer, in *Injector) *Consumer {
	return &Consumer{inner: c, in: in}
}

// Poll fetches records with faults injected before the real fetch.
// The empty (non-nil) batch on an injected error distinguishes "fault,
// retry later" from the inner consumer's nil "closed or timed out".
func (c *Consumer) Poll(max int, wait time.Duration) []broker.Record {
	if err := c.in.fault("broker.Poll"); err != nil {
		return []broker.Record{}
	}
	return c.inner.Poll(max, wait)
}

// Commit advances the group offsets unless a fault skips it.
func (c *Consumer) Commit() {
	if err := c.in.fault("broker.Commit"); err != nil {
		return
	}
	c.inner.Commit()
}

// Forecaster wraps a track forecaster: injected errors refuse the
// forecast (ok=false, the degraded mode the vessel actor already
// tolerates for short histories) and injected panics exercise actor
// supervision.
type Forecaster struct {
	Inner events.TrackForecaster
	in    *Injector
}

// WrapForecaster decorates a forecaster.
func WrapForecaster(fc events.TrackForecaster, in *Injector) Forecaster {
	return Forecaster{Inner: fc, in: in}
}

// Name implements events.TrackForecaster.
func (f Forecaster) Name() string { return f.Inner.Name() + " (chaos)" }

// ForecastTrack implements events.TrackForecaster.
func (f Forecaster) ForecastTrack(history []ais.PositionReport) (events.Forecast, bool) {
	if err := f.in.fault("forecaster.ForecastTrack"); err != nil {
		return events.Forecast{}, false
	}
	return f.Inner.ForecastTrack(history)
}
