package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// PartitionIID splits n examples uniformly at random across the given
// number of clients, as evenly as possible. It returns one index slice per
// client.
func PartitionIID(rng *rand.Rand, n, clients int) ([][]int, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("data: PartitionIID with %d clients", clients)
	}
	if n < clients {
		return nil, fmt.Errorf("data: cannot split %d examples across %d clients", n, clients)
	}
	perm := rng.Perm(n)
	out := make([][]int, clients)
	for i, idx := range perm {
		c := i % clients
		out[c] = append(out[c], idx)
	}
	return out, nil
}

// PartitionNonIID implements the paper's synthetic non-IID split: an
// s-fraction of the data is distributed IID across clients, and the
// remaining (1-s)-fraction is sorted by label, carved into
// shardsPerClient×clients contiguous shards, and each client receives
// shardsPerClient random shards (the paper uses 2). Smaller s yields a more
// skewed label distribution per client.
func PartitionNonIID(rng *rand.Rand, examples []Example, clients int, s float64, shardsPerClient int) ([][]int, error) {
	n := len(examples)
	if clients <= 0 {
		return nil, fmt.Errorf("data: PartitionNonIID with %d clients", clients)
	}
	if s < 0 || s > 1 {
		return nil, fmt.Errorf("data: non-IID fraction s=%v out of [0,1]", s)
	}
	if shardsPerClient <= 0 {
		return nil, fmt.Errorf("data: shardsPerClient=%d invalid", shardsPerClient)
	}
	if n < clients*shardsPerClient {
		return nil, fmt.Errorf("data: %d examples too few for %d clients × %d shards", n, clients, shardsPerClient)
	}

	perm := rng.Perm(n)
	nIID := int(s * float64(n))
	iidPart, rest := perm[:nIID], perm[nIID:]

	out := make([][]int, clients)
	for i, idx := range iidPart {
		c := i % clients
		out[c] = append(out[c], idx)
	}

	// Sort the remaining indices by label (stable on index for determinism).
	sorted := make([]int, len(rest))
	copy(sorted, rest)
	sort.SliceStable(sorted, func(a, b int) bool {
		la, lb := examples[sorted[a]].Label, examples[sorted[b]].Label
		if la != lb {
			return la < lb
		}
		return sorted[a] < sorted[b]
	})

	nShards := clients * shardsPerClient
	if len(sorted) > 0 {
		shardSize := len(sorted) / nShards
		if shardSize == 0 {
			// Degenerate: give everything out round-robin to keep counts sane.
			for i, idx := range sorted {
				out[i%clients] = append(out[i%clients], idx)
			}
		} else {
			shardPerm := rng.Perm(nShards)
			for pos, shard := range shardPerm {
				c := pos % clients
				lo := shard * shardSize
				hi := lo + shardSize
				if shard == nShards-1 {
					hi = len(sorted) // last shard absorbs the remainder
				}
				out[c] = append(out[c], sorted[lo:hi]...)
			}
		}
	}

	for c := range out {
		if len(out[c]) == 0 {
			return nil, fmt.Errorf("data: non-IID split left client %d without data", c)
		}
	}
	return out, nil
}
