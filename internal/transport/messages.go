// Package transport puts the federated-learning protocol of Fig. 1 on a
// real network boundary. It is two wires over one server-side core
// (asyncfl.Aggregator, which alone screens, defends, merges and applies):
// the gob wire of this file — a parameter server coordinating synchronous
// rounds with n TCP clients, the paper's setting — and the versioned
// /asyncfl/v2 HTTP wire (async.go; binary bodies for the model and the
// update, async_wire.go) for clients that come and go. Neither
// wire aggregates anything itself (cmd/flserver, cmd/flclient).
package transport

// Hello is the first message a client sends after connecting.
type Hello struct {
	// ClientID is a caller-chosen identifier used only for logging; the
	// aggregation itself treats gradients as anonymous, matching the
	// paper's threat model.
	ClientID string
}

// ModelUpdate is broadcast by the server at the start of each round, and
// once more with Done=true when training completes.
type ModelUpdate struct {
	// Round is the 0-based round index.
	Round int
	// Params is the current flat global parameter vector.
	Params []float64
	// Done signals the end of training; Params then holds the final model.
	Done bool
}

// GradientUpload carries one client's gradient for a round.
type GradientUpload struct {
	// Round echoes the round index the gradient was computed for.
	Round int
	// Grad is the client's flat gradient vector (honest or malicious).
	Grad []float64
}
