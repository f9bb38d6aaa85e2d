// Distributed federation: the same protocol as examples/quickstart, but
// over a real TCP boundary — an in-process parameter server plus several
// client processes (goroutines here; see cmd/flserver and cmd/flclient for
// the separate-process binaries). Two of the clients sign-flip their
// gradients; the server defends with SignGuard.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	signguard "github.com/signguard/signguard"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

const (
	clients = 6
	byz     = 2
	rounds  = 80
	seed    = 1
)

func main() {
	ds, err := signguard.MNISTLike(seed, 2000, 500)
	if err != nil {
		log.Fatal(err)
	}
	model, err := signguard.NewImageCNN(tensor.NewRNG(seed), 1, 8, 8, 6, 32, 10)
	if err != nil {
		log.Fatal(err)
	}

	// The aggregation core: lock-step rounds are a buffer of one fresh
	// gradient per client (K = clients), for `rounds` steps.
	agg, err := signguard.NewAggregator(signguard.AggregatorConfig{
		InitialParams: model.ParamVector(),
		K:             clients,
		Rule:          signguard.NewSignGuard(seed),
		LR:            0.05,
		Momentum:      0.9,
		WeightDecay:   5e-4,
		TargetSteps:   rounds,
		SessionTTL:    -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := signguard.NewServer(signguard.ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      clients,
		RoundTimeout: 20 * time.Second,
	}, agg)
	if err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr().String()
	fmt.Printf("parameter server on %s, %d clients (%d Byzantine), %d rounds\n",
		addr, clients, byz, rounds)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ctx); err != nil {
			log.Printf("server: %v", err)
		}
	}()

	parts, err := data.PartitionIID(tensor.NewRNG(seed+2), len(ds.Train), clients)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := runClient(ctx, addr, ds, parts[i], i, i < byz); err != nil {
				log.Printf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	_, params, _ := agg.Model()
	if err := model.SetParamVector(params); err != nil {
		log.Fatal(err)
	}
	acc, err := signguard.Evaluate(model, ds, ds.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final global model accuracy with SignGuard: %.2f%%\n", acc)
}

// runClient participates in training with an honest or sign-flipping role.
func runClient(ctx context.Context, addr string, ds *signguard.Dataset, part []int, id int, byzantine bool) error {
	local, err := data.Subset(ds.Train, part)
	if err != nil {
		return err
	}
	sampler, err := data.NewSampler(tensor.NewRNG(seed+100+int64(id)), local)
	if err != nil {
		return err
	}
	model, err := signguard.NewImageCNN(tensor.NewRNG(seed), 1, 8, 8, 6, 32, 10)
	if err != nil {
		return err
	}
	compute := func(round int, params []float64) ([]float64, error) {
		if err := model.SetParamVector(params); err != nil {
			return nil, err
		}
		in, labels, err := fl.BatchInput(ds, sampler.Batch(8))
		if err != nil {
			return nil, err
		}
		model.ZeroGrad()
		if _, _, err := model.LossAndGrad(in, labels); err != nil {
			return nil, err
		}
		g := model.GradVector()
		if byzantine {
			tensor.ScaleInPlace(g, -1) // sign-flip attack
		}
		return g, nil
	}
	role := "honest"
	if byzantine {
		role = "byzantine"
	}
	fmt.Printf("client %d (%s) joining\n", id, role)
	_, err = transport.RunClient(ctx, transport.ClientConfig{
		Addr:    addr,
		ID:      fmt.Sprintf("client-%d-%s", id, role),
		Compute: compute,
	})
	return err
}
