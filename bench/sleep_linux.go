package bench

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until the deadline. The Go
// runtime rounds sub-millisecond timer sleeps up to about a millisecond
// on Linux, which would make the open-loop generator late by half a
// millisecond on average; nanosleep wakes within the kernel's timer
// slack instead. The last few microseconds are spun.
func sleepUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		if d > 20*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(d - 10*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
	}
}

// tightenTimerSlack cuts the calling thread's timer slack from the
// default 50 µs to 1 µs. Call it on a locked OS thread.
func tightenTimerSlack() {
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort
}
