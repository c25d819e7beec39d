package main

import (
	"context"
	"math"
)

// workload is one set of inputs and the topology they are driven
// through. Every workload is a closed loop: each client sends its next
// request only once the previous one has answered, because every real
// caller of the stack — art9-batch, a remote Balancer, a CI script —
// waits for its rows.
type workload struct {
	name string
	why  string
	// clients is the number of concurrent client loops, capped at the
	// machine's CPU count.
	clients int
	open    func(context.Context, *tracer) (*rig, error)
	inputs  func(seed int64) *inputs
}

// inputs is one seed's generated work for a workload.
type inputs struct {
	// pool is every distinct program the workload runs: the oracle's
	// domain.
	pool []program
	// prime requests every pool program once, before anything is timed.
	prime []request
	// first is the set-up cycles' priming request: the pool's first
	// programs, whose kinds and sizes are the same for every seed.
	first request
	// next returns the i-th request of the workload's stream.
	next func(i uint64) request
	// variants are programs that must render their base program's row;
	// they are checked against the oracle at start-up.
	variants []program
}

var workloads = []workload{
	{
		name:    "short-jobs",
		why:     "tiny kernels, one job per request: fixed per-job cost (State allocation, machine set-up, translate, GC) dominates",
		clients: 2,
		open:    openEngine,
		inputs: func(seed int64) *inputs {
			return cycling(seed, kernelPool(seed, "k", 256), 1)
		},
	},
	{
		name:    "long-sim",
		why:     "Dhrystone jobs of 100k-270k cycles: simulator step time is over 85% of each job and set-up is under 1%",
		clients: 2,
		open:    openEngine,
		inputs: func(seed int64) *inputs {
			return cycling(seed, dhrystonePool(seed, 16), 1)
		},
	},
	{
		name:    "serve-replay",
		why:     "8-job /v1/suite POSTs, 90% cached: manifest decode, cache lookups and fills, report encode and the HTTP hop dominate",
		clients: 2,
		open:    openServe,
		inputs:  serveReplay,
	},
	{
		name:    "fleet-chunked",
		why:     "16-job batches through a failover Balancer over two loopback leaves: dispatch, remote client and acked streams show",
		clients: 1,
		open:    openFleet,
		inputs: func(seed int64) *inputs {
			return cycling(seed, kernelPool(seed, "f", 256), 16)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycling requests the pool batch programs at a time, in one seeded
// order, over and over.
func cycling(seed int64, pool []program, batch int) *inputs {
	perm := newRand(seed, 'o').Perm(len(pool))
	reqs := make([]request, len(pool)/batch)
	for k := range reqs {
		progs := make([]program, batch)
		for j := range progs {
			progs[j] = pool[perm[k*batch+j]]
		}
		reqs[k] = newRequest(progs...)
	}
	return &inputs{
		pool:  pool,
		prime: reqs,
		first: newRequest(pool[:batch]...),
		next:  func(i uint64) request { return reqs[i%uint64(len(reqs))] },
	}
}

// serveReplay sends 8-job suites drawn from a pool of 512 programs the
// server has already evaluated, except that each job is, with
// probability 1/10, a fresh variant no cache has seen: cache lookups run
// alongside cache fills.
func serveReplay(seed int64) *inputs {
	const suite = 8
	in := cycling(seed, kernelPool(seed, "r", 512), suite)
	pool := in.pool
	in.next = func(i uint64) request {
		progs := make([]program, suite)
		for j := range progs {
			slot := i*suite + uint64(j)
			h := mix(seed, slot)
			progs[j] = pool[(h>>32)%uint64(len(pool))]
			if h%10 == 0 {
				progs[j] = freshVariant(progs[j], slot)
			}
		}
		return newRequest(progs...)
	}
	// Variants numbered from the top of the range never collide with a
	// slot of the stream.
	for k := uint64(0); k < 3; k++ {
		in.variants = append(in.variants, freshVariant(pool[k*97%uint64(len(pool))], math.MaxUint64-k))
	}
	return in
}
