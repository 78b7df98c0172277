package dbm

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Result serialisation for the durable artifact cache
// (internal/artcache). A DBM execution is a deterministic function of
// (binary, schedule, configuration) — the determinism contract the
// golden fixture pins — so the full Result, stats included, can be
// stored on disk and replayed. Engine-selection knobs must be part of
// the cache key: virtual-cycle results are bit-identical across
// engines, but the engine-attribution counter (HostParRegions) is
// not. See janus's cache glue for the key layout; changing Result or
// Stats fields must bump the artifact kind tag there.

// EncodeResult serialises r for the artifact cache.
func EncodeResult(r *Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult parses an EncodeResult payload, rejecting payloads with
// unknown fields (a schema skew must recompute, not half-read).
func DecodeResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	r := new(Result)
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("dbm: decode cached result: %w", err)
	}
	return r, nil
}
