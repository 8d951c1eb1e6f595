package broker

// Inspection seams for this package's tests; production code reads
// offsets and assignments through Poll and Commit only.

// Partitions returns the partition count of a topic, or 0 when unknown.
func (b *Broker) Partitions(name string) int {
	t, err := b.topic(name)
	if err != nil {
		return 0
	}
	return len(t.partitions)
}

// EndOffsets returns the current end offset of every partition.
func (b *Broker) EndOffsets(topicName string) ([]int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(t.partitions))
	for i, p := range t.partitions {
		out[i] = p.end()
	}
	return out, nil
}

// Assignment returns the partitions currently assigned to the consumer.
func (c *Consumer) Assignment() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.assigned))
	copy(out, c.assigned)
	return out
}
