package cluster

import "sort"

// Owned returns the sorted partitions assigned to worker.
func (a Assignment) Owned(worker string) []PartitionID {
	var out []PartitionID
	for p, w := range a.Workers {
		if w == worker {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
