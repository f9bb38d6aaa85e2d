// Package transport puts the federated-learning protocol of Fig. 1 on a
// real network boundary: the versioned /asyncfl/v2 HTTP wire in front of
// one server-side core (asyncfl.Aggregator, which alone screens, defends,
// merges and applies). Free clients submit whenever they finish a gradient
// (RunAsyncClient); the paper's synchronous rounds are a cohort of clients
// submitting at fixed schedule positions of a deterministic aggregator
// (RunAsyncClient with a Cohort), with RunRoundTimer ending the rounds a
// member misses. Every submit is a codec payload: a client with no codec
// sends the identity payload, the gradient uncompressed. The wire
// aggregates nothing itself (cmd/flserver, cmd/flclient).
package transport

import "github.com/signguard/signguard/internal/codec"

// The protocol is versioned in its path. v2 carries the two gradient-sized
// messages — model fetch and update submit — as binary bodies
// (async_wire.go) where v1 carried JSON; a v1 client gets a 404.
const (
	// AsyncPathModel serves the current model: GET → AsyncModelResponse
	// (binary body).
	AsyncPathModel = "/asyncfl/v2/model"
	// AsyncPathUpdate ingests one gradient: POST AsyncSubmitRequest (binary
	// body) → asyncfl.SubmitResult (JSON: the backpressure/staleness
	// signals).
	AsyncPathUpdate = "/asyncfl/v2/update"
	// AsyncPathHeartbeat renews an idle client's liveness lease: POST
	// AsyncHeartbeatRequest → AsyncHeartbeatResponse (both JSON).
	AsyncPathHeartbeat = "/asyncfl/v2/heartbeat"
	// AsyncPathStats exposes the aggregator counters: GET → asyncfl.Stats
	// (JSON).
	AsyncPathStats = "/asyncfl/v2/stats"
)

// AsyncModelResponse is the server's answer to a model fetch.
type AsyncModelResponse struct {
	// Version is the model version; submits must echo it so the server
	// can compute staleness.
	Version int
	// Params is the flat global parameter vector.
	Params []float64
	// Codecs lists the compression codec names (internal/codec registry
	// names) this server accepts on submit. Clients configured with any
	// other codec must fail fast rather than ship encoded payloads the
	// server will refuse.
	Codecs []string
	// Done reports training finished; Params then holds the final model.
	Done bool
}

// AsyncSubmitRequest carries one client gradient as a codec payload: an
// uncompressed gradient is the identity codec's.
type AsyncSubmitRequest struct {
	// Client identifies the session (also renews its liveness lease):
	// 1 to 256 bytes.
	Client string
	// Version is the model version the gradient was computed against.
	Version int
	// Seq is the schedule position in deterministic mode (ignored
	// otherwise).
	Seq int64
	// Encoded is the wire form of the gradient; the server decodes it
	// through its codec registry and accounts its wire size.
	Encoded codec.Encoded
}

// AsyncHeartbeatRequest renews a session without submitting.
type AsyncHeartbeatRequest struct {
	Client string
}

// AsyncHeartbeatResponse reports the server state to an idle client.
type AsyncHeartbeatResponse struct {
	Version int
	Done    bool
}
