// Command flclient joins a federated training session coordinated by
// flserver over its /asyncfl/v2 HTTP wire. It regenerates the shared
// dataset from the seed, takes the partition matching its client id, and
// participates honestly — or, with -byzantine, misbehaves using one of the
// local attack strategies (the network setting restricts the adversary to
// non-omniscient attacks: sign flipping, scaled reverse, random noise, or
// label flipping).
//
// By default it is member -id of a lock-step cohort of -clients, the
// paper's synchronous rounds: each round it fetches the model, submits a
// gradient at its own schedule position and waits for the round to end; an
// upload refused with HTTP 400 ends it. With -async it submits freely
// instead: fetch the versioned model, compute a gradient against it,
// submit, repeat — no waiting on other clients — until the server reports
// Done (or -updates submissions were accepted).
// -codec compresses each submission with a gradient codec (topk, qsgd,
// signsgd); the server must advertise the codec as accepted or the client
// fails fast on its first submission.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"slices"
	"strings"

	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

// localByzModes maps every -byzantine mode to the internal/attack registry
// entry it renders locally. The network setting restricts the adversary to
// the registry subset that needs no cohort visibility (a real client never
// sees the other submissions), which is why omniscient attacks like LIE or
// Min-Max have no mode here. A test pins each value against attack.Builtin
// and each key against the flag usage string, so neither the doc comment
// nor the CLI surface can drift from the registry.
var localByzModes = map[string]string{
	"signflip":  "Sign-flip",
	"reverse":   "Reverse",
	"random":    "Random",
	"labelflip": "Label-flip",
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9000", "server address")
		id       = flag.Int("id", 0, "client id in [0, clients)")
		clients  = flag.Int("clients", 4, "total number of clients (must match server)")
		batch    = flag.Int("batch", 16, "local mini-batch size")
		seed     = flag.Int64("seed", 1, "shared dataset/model seed (must match server)")
		byzStr   = flag.String("byzantine", "", "misbehave: signflip|reverse|random|labelflip (empty = honest)")
		async    = flag.Bool("async", false, "speak the asynchronous HTTP protocol (server must run flserver -async)")
		updates  = flag.Int("updates", 0, "async: stop after this many accepted submissions (0 = until server Done)")
		codecStr = flag.String("codec", "", "compress submissions with this codec (identity|topk|qsgd|signsgd; the server must accept it)")
		hyperStr = flag.String("codec-hyper", "", "codec hyperparameters as key=value[,key=value], e.g. k=64 (requires -codec)")
	)
	flag.Parse()

	if err := validateFlags(*id, *clients, *batch, *updates); err != nil {
		log.Fatalf("flclient: %v", err)
	}
	if err := validateByzMode(*byzStr); err != nil {
		log.Fatalf("flclient: %v", err)
	}
	wire, err := cliutil.Codec(*codecStr, *hyperStr)
	if err != nil {
		log.Fatalf("flclient: %v", err)
	}
	if err := run(*addr, *id, *clients, *batch, *seed, *byzStr, *async, *updates, wire); err != nil {
		log.Fatalf("flclient: %v", err)
	}
}

// validateFlags rejects out-of-range flag values up front with clear
// errors naming the offending flag (internal/cliutil).
func validateFlags(id, clients, batch, updates int) error {
	if err := cliutil.PositiveInt("-clients", clients); err != nil {
		return err
	}
	if err := cliutil.IndexInRange("-id", id, clients); err != nil {
		return err
	}
	if err := cliutil.PositiveInt("-batch", batch); err != nil {
		return err
	}
	return cliutil.NonNegativeInt("-updates", updates)
}

// validateByzMode rejects unknown -byzantine modes before connecting.
func validateByzMode(mode string) error {
	if mode == "" {
		return nil
	}
	if _, ok := localByzModes[mode]; !ok {
		return fmt.Errorf("unknown -byzantine mode %q (have %s)", mode, strings.Join(slices.Sorted(maps.Keys(localByzModes)), "|"))
	}
	return nil
}

func run(addr string, id, clients, batch int, seed int64, byzStr string, async bool, updates int, wire codec.Codec) error {
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
	if byzStr == "labelflip" {
		local, err = data.FlipLabels(local, ds.Classes)
		if err != nil {
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
	noiseRng := tensor.NewRNG(seed + 500 + int64(id))

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
		g := model.GradVector()
		switch byzStr {
		case "", "labelflip":
			// labelflip already poisoned the data; gradient is "honest".
		case "signflip":
			tensor.ScaleInPlace(g, -1)
		case "reverse":
			tensor.ScaleInPlace(g, -100)
		case "random":
			g = tensor.RandNormal(noiseRng, len(g), 0, 0.5)
		default:
			return nil, fmt.Errorf("unknown byzantine mode %q", byzStr)
		}
		return g, nil
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
	log.Printf("flclient %d: joining %s (%s, %d local examples, byzantine=%q)",
		id, addr, mode, sampler.Size(), byzStr)
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
