// Attack gallery: run every model-poisoning attack from the paper against
// a fixed defense lineup on the CIFAR analog, printing a mini version of
// the paper's Table I. Demonstrates the full attack and rule surface of
// the public API, including the selection-rate reporting used in Table II.
package main

import (
	"fmt"
	"log"
	"math/rand"

	signguard "github.com/signguard/signguard"
)

func main() {
	ds, err := signguard.CIFARLike(1, 1500, 400)
	if err != nil {
		log.Fatal(err)
	}

	// Catalog names: the attacks run at their defaults (LIE's z = 0.3), the
	// defenses are granted the true Byzantine count.
	attacks := []string{"NoAttack", "Random", "Sign-flip", "LIE", "ByzMean", "Min-Max", "Min-Sum"}
	defenses := []string{"Mean", "Median", "Multi-Krum", "SignGuard-Sim"}
	const (
		clients = 20
		numByz  = 4
	)

	fmt.Printf("%-10s", "attack")
	for _, d := range defenses {
		fmt.Printf("  %13s", d)
	}
	fmt.Println()

	for _, a := range attacks {
		fmt.Printf("%-10s", a)
		for _, d := range defenses {
			rule, err := signguard.NewDefense(d, signguard.DefenseParams{N: clients, F: numByz, Seed: 1})
			if err != nil {
				log.Fatal(err)
			}
			att, err := signguard.NewAttack(a, 0, 1)
			if err != nil {
				log.Fatal(err)
			}
			sim, err := signguard.NewSimulation(signguard.SimulationConfig{
				Dataset: ds,
				NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
					return signguard.NewDeepImageCNN(rng, 3, 8, 8, 8, 16, 32, 10)
				},
				Rule:        rule,
				Attack:      att,
				Clients:     clients,
				NumByz:      numByz,
				Rounds:      80,
				BatchSize:   8,
				LR:          0.03,
				Momentum:    0.9,
				WeightDecay: 5e-4,
				EvalEvery:   10,
				EvalSamples: 200,
				Seed:        1,
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				log.Fatal(err)
			}
			cell := fmt.Sprintf("%.1f", res.BestAccuracy)
			if h, m, ok := res.SelectionRates(); ok {
				cell = fmt.Sprintf("%.1f (H%.2f/M%.2f)", res.BestAccuracy, h, m)
			}
			fmt.Printf("  %13s", cell)
		}
		fmt.Println()
	}
}
