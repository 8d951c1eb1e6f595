package fleetsim

import "math"

// IntervalStats returns the mean and standard deviation (seconds) of
// the inter-report intervals across all tracks — the statistic §6.1
// reports (78.6 s +- 418.3 s after 30 s downsampling).
func (d *RecordedDataset) IntervalStats() (mean, std float64) {
	var sum, sumSq float64
	n := 0
	for _, t := range d.Tracks {
		for i := 1; i < len(t.Reports); i++ {
			dt := t.Reports[i].Timestamp.Sub(t.Reports[i-1].Timestamp).Seconds()
			sum += dt
			sumSq += dt * dt
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}
