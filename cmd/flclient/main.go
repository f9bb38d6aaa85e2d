// Command flclient joins a federated training session coordinated by
// flserver over its /asyncfl/v2 HTTP wire. It regenerates the shared
// dataset from the seed, takes the partition matching its client id, and
// participates honestly — or, with -byzantine, misbehaves as one of the
// attack catalog's entries (internal/attack) a client renders from its own
// gradient alone: Sign-flip, Reverse ×100, Random noise or Label-flip
// (the network setting gives the adversary no view of the cohort).
//
// By default it is member -id of a lock-step cohort of -clients, the
// paper's synchronous rounds: each round it fetches the model, submits a
// gradient at its own schedule position and waits for the round to end; an
// upload refused with HTTP 400 ends it. With -async it submits freely
// instead: fetch the versioned model, compute a gradient against it,
// submit, repeat — no waiting on other clients — until the server reports
// Done (or -updates submissions were accepted).
// Every submission is a codec payload: without -codec it is the identity
// payload (the gradient uncompressed), and -codec compresses it instead
// (topk, qsgd, signsgd). Either way the server must advertise the codec as
// accepted, or the client fails fast before its first submission.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

// localByzModes maps each -byzantine mode, an internal/attack catalog name,
// to the scalar parameter its constructor gets. A networked client never
// sees the other submissions, so omniscient attacks like LIE or Min-Max
// have no mode here.
var localByzModes = map[string]float64{
	"Sign-flip":  0,
	"Reverse":    100,
	"Random":     0,
	"Label-flip": 0,
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9000", "server address")
		id       = flag.Int("id", 0, "client id in [0, clients)")
		clients  = flag.Int("clients", 4, "total number of clients (must match server)")
		batch    = flag.Int("batch", 16, "local mini-batch size")
		seed     = flag.Int64("seed", 1, "shared dataset/model seed (must match server)")
		byzStr   = flag.String("byzantine", "", "misbehave as this attack: "+byzModes()+" (empty = honest)")
		async    = flag.Bool("async", false, "speak the asynchronous HTTP protocol (server must run flserver -async)")
		updates  = flag.Int("updates", 0, "async: stop after this many accepted submissions (0 = until server Done)")
		codecStr = flag.String("codec", "", "compress submissions with this codec (identity|topk|qsgd|signsgd; the server must accept it)")
	)
	flag.Parse()

	if err := validateFlags(*id, *clients, *batch, *updates); err != nil {
		log.Fatalf("flclient: %v", err)
	}
	byz, err := newByzantine(*byzStr, *seed, *id)
	if err != nil {
		log.Fatalf("flclient: %v", err)
	}
	wire, err := cliutil.Codec(*codecStr)
	if err != nil {
		log.Fatalf("flclient: %v", err)
	}
	if err := run(*addr, *id, *clients, *batch, *seed, byz, *async, *updates, wire); err != nil {
		log.Fatalf("flclient: %v", err)
	}
}

// validateFlags rejects out-of-range flag values up front with clear
// errors naming each offending flag (internal/cliutil).
func validateFlags(id, clients, batch, updates int) error {
	return errors.Join(
		cliutil.PositiveInt("-clients", clients),
		cliutil.IndexInRange("-id", id, clients),
		cliutil.PositiveInt("-batch", batch),
		cliutil.NonNegativeInt("-updates", updates),
	)
}

// byzModes lists the -byzantine modes for the usage string and errors.
func byzModes() string { return strings.Join(slices.Sorted(maps.Keys(localByzModes)), "|") }

// byzantine is a client's -byzantine misbehaviour: the catalog attack and
// the RNG stream its crafting draws from. The zero value is honest.
type byzantine struct {
	attack attack.Attack
	rng    *rand.Rand
}

// newByzantine resolves a -byzantine mode before connecting: "" is honest,
// anything else must be a catalog attack that localByzModes lists.
func newByzantine(mode string, seed int64, id int) (byzantine, error) {
	if mode == "" {
		return byzantine{}, nil
	}
	spec, err := attack.Builtin().Lookup(mode)
	if err != nil {
		return byzantine{}, fmt.Errorf("-byzantine: %w", err)
	}
	param, ok := localByzModes[mode]
	if !ok {
		return byzantine{}, fmt.Errorf("-byzantine: %s is not one of the local modes %s (a networked client sees only its own gradient)", mode, byzModes())
	}
	a, err := spec.New(param, seed)
	if err != nil {
		return byzantine{}, err
	}
	return byzantine{attack: a, rng: tensor.NewRNG(seed + 500 + int64(id))}, nil
}

// craft returns the gradient the client submits in place of its honest g.
func (b byzantine) craft(g []float64) ([]float64, error) {
	if b.attack == nil {
		return g, nil
	}
	return attack.Local(b.attack, g, b.rng)
}

func run(addr string, id, clients, batch int, seed int64, byz byzantine, async bool, updates int, wire codec.Codec) error {
	ds, err := data.MNISTLike(seed, 4000, 1000)
	if err != nil {
		return err
	}
	parts, err := data.PartitionIID(tensor.NewRNG(seed+2), len(ds.Train), clients)
	if err != nil {
		return err
	}
	local, err := data.Subset(ds.Train, parts[id])
	if err != nil {
		return err
	}
	if p, ok := byz.attack.(attack.DataPoisoner); ok {
		if local, err = p.PoisonData(local, ds.Classes); err != nil {
			return err
		}
	}
	sampler, err := data.NewSampler(tensor.NewRNG(seed+100+int64(id)), local)
	if err != nil {
		return err
	}
	model, err := nn.NewImageCNN(tensor.NewRNG(seed), 1, 8, 8, 6, 32, 10)
	if err != nil {
		return err
	}
	compute := func(round int, params []float64) ([]float64, error) {
		if err := model.SetParamVector(params); err != nil {
			return nil, err
		}
		in, labels, err := fl.BatchInput(ds, sampler.Batch(batch))
		if err != nil {
			return nil, err
		}
		model.ZeroGrad()
		if _, _, err := model.LossAndGrad(in, labels); err != nil {
			return nil, err
		}
		return byz.craft(model.GradVector())
	}

	cfg := transport.AsyncClientConfig{
		Addr:       addr,
		ID:         fmt.Sprintf("client-%d", id),
		Compute:    compute,
		MaxUpdates: updates,
		Codec:      wire,
		Rng:        tensor.NewRNG(seed + 900 + int64(id)),
		Cohort:     clients,
		Slot:       id,
	}
	mode := "sync"
	if async {
		mode, cfg.Cohort, cfg.Slot = "async", 0, 0
	}
	role := "honest"
	if byz.attack != nil {
		role = "byzantine " + byz.attack.Name()
	}
	log.Printf("flclient %d: joining %s (%s, %d local examples, %s)", id, addr, mode, sampler.Size(), role)
	final, err := transport.RunAsyncClient(context.Background(), cfg)
	if err != nil {
		return err
	}
	if err := model.SetParamVector(final); err != nil {
		return err
	}
	acc, err := fl.Evaluate(model, ds, ds.Test)
	if err != nil {
		return err
	}
	log.Printf("flclient %d: training finished, local view of final accuracy: %.2f%%", id, acc)
	return nil
}
