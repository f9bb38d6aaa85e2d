// Quickstart: train a federated model under the "Little is Enough" attack
// with and without SignGuard, and compare. This is the minimal end-to-end
// use of the public API: a dataset analog, a model, and attacks and
// defenses built by their catalog names.
package main

import (
	"fmt"
	"log"
	"math/rand"

	signguard "github.com/signguard/signguard"
)

func main() {
	// A 10-class image dataset analog standing in for MNIST, shared by
	// every run below.
	ds, err := signguard.MNISTLike(1, 2000, 500)
	if err != nil {
		log.Fatal(err)
	}

	// train runs one federation with the named defense against the named
	// attack (LIE at its default z = 0.3).
	train := func(defense, attack string) float64 {
		rule, err := signguard.NewDefense(defense, signguard.DefenseParams{N: 20, F: 4, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		att, err := signguard.NewAttack(attack, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := signguard.NewSimulation(signguard.SimulationConfig{
			Dataset: ds,
			NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
				return signguard.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
			},
			Rule:        rule,
			Attack:      att,
			Clients:     20,
			NumByz:      4, // 20% Byzantine, the paper's default
			Rounds:      100,
			BatchSize:   8,
			LR:          0.03,
			Momentum:    0.9,
			WeightDecay: 5e-4,
			EvalEvery:   10,
			Seed:        1,
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

	baseline := train("Mean", "NoAttack")
	attacked := train("Mean", "LIE")
	guarded := train("SignGuard", "LIE")

	fmt.Println("LIE attack, 20% Byzantine clients:")
	fmt.Printf("  no attack, plain mean:   %6.2f%%\n", baseline)
	fmt.Printf("  under attack, mean:      %6.2f%%   (attack impact %.2f)\n", attacked, baseline-attacked)
	fmt.Printf("  under attack, SignGuard: %6.2f%%   (attack impact %.2f)\n", guarded, baseline-guarded)
}
