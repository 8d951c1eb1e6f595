//go:build !linux

package bench

import "time"

func sleepUntil(deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
}

func tightenTimerSlack() {}
