package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// specVersion is folded into every cell hash. Bump it whenever cell
// execution semantics change in a way that invalidates stored results.
const specVersion = 1

// hashJSON hashes the canonical JSON encoding of v. encoding/json emits
// struct fields in declaration order, so the encoding — and therefore the
// hash — is deterministic for our plain-data types.
func hashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Key returns the cell's content hash: the identity under which its result
// is stored and resumed. Two cells with equal specs share a key. The codec
// spellings "" and "identity" normalize to one identity (the identity
// round trip is byte-identical to no codec stage at all, so the results
// are interchangeable).
func (c Cell) Key() (string, error) {
	if c.Codec == CodecIdentity {
		c.Codec = ""
	}
	envelope := struct {
		Version int
		Cell    Cell
	}{specVersion, c}
	return hashJSON(envelope)
}

// Hash returns a deterministic digest of the result's experimental content,
// excluding runtime-only fields (duration, cache provenance). Two runs of
// the same cell must produce equal hashes regardless of worker count or
// cache state.
func (r *CellResult) Hash() (string, error) {
	clean := *r
	clean.DurationMS = 0
	clean.Cached = false
	return hashJSON(&clean)
}
