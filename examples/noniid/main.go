// Non-IID federation: reproduce the paper's Fig. 6 protocol on one cell —
// training under the ByzMean attack at three levels of label skew
// (s = 0.3, 0.5, 0.8), comparing SignGuard-Sim against trimmed mean.
// Demonstrates the paper-exact non-IID partitioner of the public API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	signguard "github.com/signguard/signguard"
)

func main() {
	ds, err := signguard.FashionLike(1, 2000, 500)
	if err != nil {
		log.Fatal(err)
	}

	train := func(defense string, s float64) float64 {
		// TrMean trims the granted Byzantine count, 4, from each side.
		rule, err := signguard.NewDefense(defense, signguard.DefenseParams{N: 20, F: 4, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		byzMean, err := signguard.NewAttack("ByzMean", 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := signguard.NewSimulation(signguard.SimulationConfig{
			Dataset: ds,
			NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
				return signguard.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
			},
			Rule:        rule,
			Attack:      byzMean,
			Clients:     20,
			NumByz:      4,
			Rounds:      100,
			BatchSize:   8,
			LR:          0.03,
			Momentum:    0.9,
			WeightDecay: 5e-4,
			EvalEvery:   10,
			// The paper's split: s-fraction IID, the rest sorted by label
			// and dealt out as two shards per client.
			NonIID: &signguard.NonIIDConfig{S: s, ShardsPerClient: 2},
			Seed:   1,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res.BestAccuracy
	}

	fmt.Println("ByzMean attack, 20% Byzantine, non-IID Fashion analog:")
	fmt.Printf("%-15s %8s %8s %8s\n", "defense", "s=0.3", "s=0.5", "s=0.8")
	for _, defense := range []string{"TrMean", "SignGuard-Sim"} {
		fmt.Printf("%-15s", defense)
		for _, s := range []float64{0.3, 0.5, 0.8} {
			fmt.Printf(" %7.2f%%", train(defense, s))
		}
		fmt.Println()
	}
}
