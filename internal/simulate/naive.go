package simulate

import (
	"context"

	"bsmp/internal/analytic"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// NaiveContext runs the naive simulation of Proposition 1 (p = 1) and
// its parallel version from Section 4.2 (p > 1): host processor i mimics
// the guest nodes of its region step by step, holding their full state —
// m memory cells plus the broadcast value — in its own hierarchical
// memory and paying the access function on every touched word.
//
// State layout per host node: guest node v at local index ℓ occupies the
// block [ℓ·(m+1), (ℓ+1)·(m+1)); its broadcast value lives in the block's
// last word. The host is built with density m+1 so the geometry accounts
// for the broadcast word.
//
// Boundary traffic: at every step, host neighbors exchange the broadcast
// values of the guest nodes on their shared region boundary as messages at
// the host's node spacing (n/p)^(1/d).
//
// The expected slowdown is Θ((n/p)^(1+1/d)): per guest step, each host
// processor performs n/p block accesses at average address Θ((n/p)·m),
// i.e. average latency Θ((n/p)^(1/d)).
//
// The guest itself advances on the network stepper, one step at a time;
// this engine adds only the host's charges for each step. Cancellation is
// checked once per simulated guest step (n vertices of work), and step
// progress is reported to any attached Progress. Checks are host-side
// only, so a never-cancelled run's virtual times are those of a run
// without a context.
func NaiveContext(ctx context.Context, d, n, p, m, steps int, prog network.Program) (Result, error) {
	if e := validateCommon("naive", d, n, p, m, steps); e != nil {
		return Result{}, e
	}
	if e := validateNaiveShape(d, n, p); e != nil {
		return Result{}, e
	}
	host := network.New(d, n, p, m+1)
	perHost := n / p

	// Guest adjacency and coordinates live on the guest's own mesh, not
	// the host's — a bare topology, since no guest machine is built.
	topo := topology.NewMesh(d, n, n)
	g := network.NewGuest(topo, m, prog)

	// hostOf and baseOf map a guest node to its host index and the base
	// address of its block there.
	hostOf := make([]int, n)
	baseOf := make([]int, n)
	var patch int
	if d > 1 {
		patch = analytic.IntSqrtExact(perHost)
	}
	for v := 0; v < n; v++ {
		local := v % perHost
		if d == 1 {
			hostOf[v] = v / perHost
		} else {
			gx, gy := topo.Coord(v)
			hostOf[v] = host.Index(gx/patch, gy/patch)
			local = (gy%patch)*patch + gx%patch
		}
		baseOf[v] = local * (m + 1)
	}

	// Load initial state (free, as in the guest machine's convention).
	for v, w := range g.Outputs() {
		node, base := host.Nodes[hostOf[v]], baseOf[v]
		for i, c := range g.Memory()[v*m : (v+1)*m] {
			node.Poke(base+i, c)
		}
		node.Poke(base+m, w)
	}

	ec := newExecCtx(ctx)
	defer ec.publish()
	start := host.Elapsed()
	for g.Steps() < steps {
		if err := g.Run(g.Steps()+1, ec.hook()); err != nil {
			return Result{}, err
		}
		// Boundary exchange: for every guest edge crossing host regions,
		// the owning hosts send each other the broadcast values.
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(v) {
				if hostOf[u] != hostOf[v] {
					// u's value travels to v's host.
					host.Send(hostOf[u], hostOf[v], 1)
				}
			}
		}
		// Local simulation of each region.
		for v, out := range g.Outputs() {
			node, base := host.Nodes[hostOf[v]], baseOf[v]
			addr := base + g.Addr(v)
			node.Read(addr)
			for _, u := range g.Neighbors(v) {
				// Charge the stored-value read of a local neighbor (the
				// host double-buffers broadcast words, same cost up to a
				// constant); a remote one arrived by message this step.
				if hostOf[u] == hostOf[v] {
					node.Read(baseOf[u] + m)
				}
			}
			node.Op()
			node.Write(addr, g.Cell(v))
			node.Write(base+m, out)
		}
		host.Bank.Barrier()
	}
	return Result{
		Outputs: g.Outputs(),
		Memory:  g.Memory(),
		Time:    host.Elapsed() - start,
		Ledger:  host.Bank.Ledgers(),
		Steps:   steps,
	}, nil
}
