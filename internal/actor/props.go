package actor

// Producer constructs a fresh actor instance; it is invoked at spawn
// time and again on every restart, so all actor state built inside the
// producer is reset by a restart.
type Producer func() Actor

// SupervisionDirective selects how a panicking actor is handled.
type SupervisionDirective int

const (
	// DirectiveRestart discards the actor instance and re-creates it
	// from its Producer, preserving the mailbox.
	DirectiveRestart SupervisionDirective = iota
	// DirectiveStop terminates the actor.
	DirectiveStop
	// DirectiveResume keeps the current instance and continues with the
	// next message; the failing message is dropped.
	DirectiveResume
)

// SupervisorStrategy decides the fate of an actor that panicked.
type SupervisorStrategy struct {
	// Directive applied on failure.
	Directive SupervisionDirective
	// MaxRestarts bounds restarts within Window; when exceeded the
	// actor is stopped instead. Zero means unlimited.
	MaxRestarts int
	// WindowSeconds is the sliding window for MaxRestarts (seconds; 0
	// means "ever").
	WindowSeconds int
}

// DefaultStrategy restarts a failing actor up to 10 times per minute.
var DefaultStrategy = SupervisorStrategy{
	Directive:     DirectiveRestart,
	MaxRestarts:   10,
	WindowSeconds: 60,
}

// Props describes how to create and run an actor.
type Props struct {
	producer Producer
	strategy SupervisorStrategy
}

// PropsFromProducer builds Props from an actor factory.
func PropsFromProducer(p Producer) *Props {
	return &Props{producer: p, strategy: DefaultStrategy}
}

// PropsOf builds Props for a stateless receive function.
func PropsOf(f ReceiveFunc) *Props {
	return PropsFromProducer(func() Actor { return f })
}
