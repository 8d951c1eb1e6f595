package actor

// Producer constructs a fresh actor instance for the entity key; it is
// invoked at spawn time and again on every restart, so all actor state
// built inside the producer is reset by a restart. An actor started by
// Spawn gets its anonymous key.
type Producer func(Key) Actor

// Props describes how to create an actor.
type Props struct {
	producer Producer
}

// PropsFromProducer builds Props from an actor factory.
func PropsFromProducer(p Producer) *Props {
	return &Props{producer: p}
}

// PropsOf builds Props for a stateless receive function.
func PropsOf(f ReceiveFunc) *Props {
	return PropsFromProducer(func(Key) Actor { return f })
}
