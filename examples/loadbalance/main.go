// Music-defined load balancing (paper Section 6, Figure 5a-b): a
// source ramps its rate across the rhombus topology's single upper
// path; the switch sings its queue occupancy every 300 ms (500, 600
// or 700 Hz); when the controller hears the congested tone it
// installs a Flow-MOD splitting traffic over both paths.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"

	"mdn"
)

func main() {
	cfg, err := mdn.Load("loadbalance.json")
	if err != nil {
		panic(err)
	}
	w, err := mdn.Build(cfg)
	if err != nil {
		panic(err)
	}
	lb := w.Apps[0].(mdn.Balancer)
	s1, s2, s3, h2 := w.Switches["s1"], w.Switches["s2"], w.Switches["s3"], w.Hosts["h2"]
	w.Sim.Every(1, 1, func(now float64) {
		fmt.Printf("t=%5.2fs  s1 queue=%3d pkts  upper(s2)=%5d lower(s3)=%5d pkts  split=%v\n",
			now, s1.QueueLen(2), s2.RxPackets, s3.RxPackets, lb.LoadBalancer.Triggered)
	})
	if _, err := w.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("\ncongestion tone heard and Flow-MOD sent at t=%.2fs\n", lb.LoadBalancer.TriggeredAt)
	fmt.Printf("delivered to h2: %d packets (upper %d / lower %d)\n",
		h2.RxPackets, s2.RxPackets, s3.RxPackets)
	fmt.Printf("decoded level sequence: %v (0=low 1=mid 2=high)\n", lb.HeardLevels())
}
