package transport

import "github.com/signguard/signguard/internal/codec"

// The asynchronous protocol is versioned under /asyncfl/v1 so wire changes
// can coexist with deployed clients; the synchronous gob wire (messages.go)
// serves the same aggregator type alongside it.
const (
	// AsyncPathModel serves the current model: GET → AsyncModelResponse.
	AsyncPathModel = "/asyncfl/v1/model"
	// AsyncPathUpdate ingests one gradient: POST AsyncSubmitRequest →
	// asyncfl.SubmitResult (the backpressure/staleness signals).
	AsyncPathUpdate = "/asyncfl/v1/update"
	// AsyncPathHeartbeat renews an idle client's liveness lease: POST
	// AsyncHeartbeatRequest → AsyncHeartbeatResponse.
	AsyncPathHeartbeat = "/asyncfl/v1/heartbeat"
	// AsyncPathStats exposes the aggregator counters: GET → asyncfl.Stats.
	AsyncPathStats = "/asyncfl/v1/stats"
)

// AsyncModelResponse is the server's answer to a model fetch.
type AsyncModelResponse struct {
	// Version is the model version; submits must echo it so the server
	// can compute staleness.
	Version int
	// Params is the flat global parameter vector.
	Params []float64
	// Codecs lists the compression codec names (internal/codec registry
	// names) this server accepts on submit. Absent on pre-codec servers:
	// clients configured with a codec must fail fast rather than ship
	// encoded payloads the server cannot decode.
	Codecs []string `json:",omitempty"`
	// Done reports training finished; Params then holds the final model.
	Done bool
}

// AsyncSubmitRequest carries one client gradient.
type AsyncSubmitRequest struct {
	// Client identifies the session (also renews its liveness lease).
	Client string
	// Version is the model version the gradient was computed against.
	Version int
	// Seq is the schedule position in deterministic mode (ignored
	// otherwise).
	Seq int64
	// Grad is the flat gradient vector of an uncompressed submit.
	// Exactly one of Grad and Encoded must be set.
	Grad []float64 `json:",omitempty"`
	// Codec names the compression codec Encoded was produced by (the
	// base registry name, matching Encoded.Codec). Optional — Encoded is
	// self-describing — but when set it must agree with the payload.
	Codec string `json:",omitempty"`
	// Encoded is the compressed form of the gradient; the server decodes
	// it through its codec registry and accounts its wire size.
	Encoded *codec.Encoded `json:",omitempty"`
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
