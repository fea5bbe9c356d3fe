// Replication: the paper's distributed-systems motivation (§2). Three
// replicas of a bank state machine — on three different machines, booted at
// different times, with different entropy — apply the same command log and
// reach bitwise-identical state with zero coordination. A crashed node is
// recovered by re-executing the log on brand-new hardware. It exits 1 when
// the DetTrace replicas disagree or the recovered node fails to rejoin.
//
//	go run ./examples/replication
package main

import (
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/replica"
)

func main() {
	log := []string{
		"deposit alice 1000",
		"deposit bob 500",
		"transfer alice bob 250",
		"interest",
		"withdraw bob 100",
	}
	cluster := &replica.Cluster{Hosts: replica.DefaultHosts(), Seed: 7}

	fmt.Println("naive replication (no DetTrace): every node applies the same log ...")
	native := cluster.ExecuteNative(log)
	for _, r := range native {
		fmt.Printf("  %-8s state=%s\n", r.Host, r.StateHash[:16])
	}
	if replica.Agree(native) {
		fmt.Println("  => these native runs happened to agree; nothing guarantees it.")
	} else {
		fmt.Println("  => replicas DIVERGED: audit timestamps, txn ids and time-based")
		fmt.Println("     interest make state a function of the host, not the log.")
	}

	fmt.Println("\nreproducible replication (DetTrace):")
	results := cluster.Execute(log)
	for _, r := range results {
		fmt.Printf("  %-8s state=%s\n", r.Host, r.StateHash[:16])
	}
	agree := replica.Agree(results)
	if agree {
		fmt.Println("  => all replicas bitwise identical, no consensus round needed.")
	} else {
		fmt.Println("  => DetTrace replicas DISAGREE.")
	}

	fmt.Println("\nnode-b crashes; recovering onto decade-old hardware ...")
	fresh := replica.Host{
		Name: "node-d", Profile: machine.LegacySandyBridge(),
		Seed: 0xDEAD, Epoch: 1_600_000_000, NumCPU: 4,
	}
	// One healthy replica's checkpointed run is the whole cluster's
	// reference; the replacement restores from its last checkpoint and
	// re-executes only the log suffix.
	ref := cluster.Reference(log)
	got, ok := cluster.Recover(log, fresh, ref)
	fmt.Printf("  %-8s state=%s rejoined=%v\n", got.Host, got.StateHash[:16], ok)
	if !agree || !ok {
		os.Exit(1)
	}
}
