package pipeline

import (
	"net/http"
	"sync/atomic"

	"seatwin/internal/actor"
)

// Seams this package's tests drive the pipeline through; production
// code serves the API over its listener and never fails a worker on
// purpose.

// Handler exposes the mux (tests drive it via httptest).
func (a *API) Handler() http.Handler { return a.srv.Handler }

// FailWorker simulates this worker's process dying: heartbeats and forwarding stop, consumers close, but
// the worker neither leaves the cluster nor passivates its vessel
// actors — exactly what a crash leaves behind. The coordinator's lease
// expiry reassigns its partitions and the new owners rehydrate from
// the shared checkpoints. No-op without cluster config.
func (p *Pipeline) FailWorker() {
	cl := p.cl
	if cl == nil {
		return
	}
	atomic.StoreInt32(&cl.failed, 1)
	cl.stopOnce.Do(func() { close(cl.stop) })
	<-cl.hbDone
	<-cl.fwdDone
	cl.closeConsumers()
}

// registered returns the registry's entries of one actor kind, by
// entity id.
func (p *Pipeline) registered(kind uint8) map[uint64]*actor.PID {
	m := make(map[uint64]*actor.PID)
	p.system.Each(func(k actor.Key, pid *actor.PID) {
		if k.Kind == kind {
			m[k.ID] = pid
		}
	})
	return m
}
