// Command cluster demonstrates the datacenter-level reading of system
// entropy: eight applications spread over two simulated nodes, each node
// managed by its own ARQ controller, with E_S aggregated over the whole
// fleet. Three placements are compared — the same metric that ranks
// schedulers ranks placements.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"ahq/internal/cluster"
	"ahq/internal/sched"

	"ahq"
)

func main() {
	apps := []ahq.AppConfig{
		ahq.LCAppAt("xapian", 0.50),
		ahq.LCAppAt("moses", 0.20),
		ahq.LCAppAt("img-dnn", 0.30),
		ahq.LCAppAt("silo", 0.20),
		ahq.LCAppAt("masstree", 0.20),
		ahq.BEApp("fluidanimate"),
		ahq.BEApp("stream"),
	}

	placements := map[string][][]ahq.AppConfig{}
	var err error
	if placements["round-robin"], err = cluster.RoundRobin(apps, 2); err != nil {
		log.Fatal(err)
	}
	if placements["balanced"], err = ahq.BalancedPlacement(apps, 2); err != nil {
		log.Fatal(err)
	}
	if placements["packed"], err = cluster.Pack(apps, 2, 10); err != nil {
		log.Fatal(err)
	}

	fmt.Println("placement    node sizes  global E_LC  global E_BE  global E_S  yield")
	for _, name := range []string{"packed", "round-robin", "balanced"} {
		res, err := ahq.RunCluster(ahq.ClusterConfig{
			Spec:        ahq.DefaultSpec(),
			Seed:        21,
			NewStrategy: func(int) sched.Strategy { return ahq.NewARQ() },
			Placement:   placements[name],
			SeedPerNode: true,
		}, ahq.RunOptions{WarmupMs: 4_000, DurationMs: 12_000})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %d+%d         %.3f        %.3f        %.3f       %.0f%%\n",
			name, len(placements[name][0]), len(placements[name][1]),
			res.GlobalELC, res.GlobalEBE, res.GlobalES, 100*res.GlobalYield)
	}
	fmt.Println("\nlower E_S is a better overall user experience (paper Eq. 7, RI=0.8)")
}
