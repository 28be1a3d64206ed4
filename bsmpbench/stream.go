package main

import (
	"encoding/json"
	"net/http"
	"slices"

	"bsmp/internal/serve"
)

// rng is splitmix64: small, and fixed by this file rather than by a
// library version, so a seed names the same request stream on every
// toolchain.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0xd1342543de82ef95)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// Op classes of the run-mix stream.
const (
	classHit       = "hit"
	classMiss      = "miss"
	classInvalid   = "invalid"
	classDashboard = "dashboard"
)

// quota is the class mix of every block of run-mix ops: exact shares,
// shuffled within the block, so every seed runs the same mix.
var quota = []struct {
	class string
	n     int
}{{classHit, 25}, {classMiss, 22}, {classInvalid, 2}, {classDashboard, 1}}

// universe is run-mix's tuple set: tuples[:hot] are re-requested by the
// hit class and answered from bsmpd's result cache; the rest feed the
// miss class, several times the 512-entry LRU so misses stay misses.
type universe struct {
	tuples []serve.RunRequest
	hot    int
}

// Shapes of the miss pool. d = 1 carries the three multiprocessor
// schemes; d = 2 and d = 3 the lockstep one; a few small tuples of the
// other registry schemes ride along.
var (
	d1N     = []int{64, 128, 256}
	d1P     = []int{4, 8, 16}
	d1M     = []int{2, 4, 8}
	d1Steps = []int{8, 16, 32}
	thetas  = []float64{1.5, 2, 3, 4}
	// guestPool is how many guest seeds a universe draws; the d = 1
	// kernel key includes the guest program, so each one recalibrates.
	guestPool = 3
	// faultSeeds are fixed rather than drawn: a fault sample decides the
	// live mesh and with it which kernels calibrate, so fixed seeds keep
	// every seed's memo footprint alike and inside the daemon's
	// 1024-entry memo store.
	faultSeeds = []uint64{1, 2}
	hotPlain   = 48 // hot tuples requested in one spelling
	hotAlias   = 8  // hot multi-theta at Θ = 1 and multi-faulty at density 0, each
)

type shape struct {
	scheme         string
	d, n, p, m, st int
}

func otherShapes() []shape {
	return []shape{
		{"multi", 2, 64, 4, 4, 8}, {"multi", 2, 64, 16, 4, 16}, {"multi", 2, 256, 4, 4, 16}, {"multi", 2, 256, 16, 4, 8},
		{"multi", 3, 64, 8, 4, 8}, {"multi", 3, 64, 8, 4, 16}, {"multi", 3, 512, 8, 4, 8}, {"multi", 3, 512, 64, 4, 16},
		{"naive", 1, 64, 4, 4, 8}, {"naive", 1, 64, 8, 4, 16}, {"naive", 2, 64, 4, 4, 8}, {"unidc", 1, 16, 1, 1, 8},
	}
}

// buildUniverse draws run-mix's tuples from seed. The shapes are fixed;
// the seed picks guest seeds, Θ seeds, which fixed fault seed each
// multi-faulty tuple takes, which tuples are hot, and the order of
// everything, so every seed's cost mix is alike.
func buildUniverse(seed uint64) *universe {
	r := newRNG(seed, 0)
	var guests []uint64
	for len(guests) < guestPool {
		g := 1 + r.next()%(1<<20)
		if !slices.Contains(guests, g) {
			guests = append(guests, g)
		}
	}
	var pool []serve.RunRequest
	for _, g := range guests {
		for _, n := range d1N {
			for _, p := range d1P {
				for _, m := range d1M {
					for _, st := range d1Steps {
						base := serve.RunRequest{Scheme: "multi", D: 1, N: n, P: p, M: m, Steps: st, Guest: "mixca", Seed: g}
						pool = append(pool, base)
						for _, th := range thetas {
							t := base
							t.Scheme = "multi-theta"
							t.Config.Theta, t.Config.ThetaSeed = th, 1+r.next()%1000
							pool = append(pool, t)
						}
						f := base
						f.Scheme = "multi-faulty"
						f.Config.Faults, f.Config.FaultSeed = 0.2, faultSeeds[r.intn(len(faultSeeds))]
						pool = append(pool, f)
					}
				}
			}
		}
		for _, s := range otherShapes() {
			pool = append(pool, serve.RunRequest{Scheme: s.scheme, D: s.d, N: s.n, P: s.p, M: s.m, Steps: s.st, Guest: "mixca", Seed: g})
		}
	}
	r.shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	// Hot set: the first hotPlain tuples of the shuffled pool, plus
	// tuples whose cache key several spellings share.
	u := &universe{}
	u.tuples = append(u.tuples, pool[:hotPlain]...)
	for _, scheme := range []string{"multi-theta", "multi-faulty"} {
		for i := 0; i < hotAlias; i++ {
			u.tuples = append(u.tuples, serve.RunRequest{Scheme: scheme, D: 1,
				N: d1N[r.intn(len(d1N))], P: d1P[r.intn(len(d1P))], M: d1M[r.intn(len(d1M))],
				Steps: d1Steps[r.intn(len(d1Steps))], Guest: "mixca", Seed: guests[r.intn(len(guests))]})
		}
	}
	u.hot = len(u.tuples)
	u.tuples = append(u.tuples, pool[hotPlain:]...)
	return u
}

// op is one request of the run-mix stream.
type op struct {
	class  string
	method string
	path   string
	body   []byte
	tuple  int    // universe index whose reference the answer must match; -1 if none
	field  string // invalid class: the field the structured 400 must name
}

// stream is one client's seeded op sequence: the same (universe, seed,
// client) yields a byte-identical sequence of requests.
type stream struct {
	u      *universe
	r      *rng
	block  []string
	misses []int // this client's share of the miss pool, in its seeded cyclic order
	mpos   int
}

// newStream splits the miss pool between the clients and fixes each
// client's cyclic order once: a tuple comes back only after every other
// miss of the pool has been inserted, long after the LRU evicted it.
func newStream(u *universe, seed uint64, client int) *stream {
	s := &stream{u: u, r: newRNG(seed, uint64(client)+1)}
	for i := u.hot + client; i < len(u.tuples); i += runMixClients {
		s.misses = append(s.misses, i)
	}
	s.r.shuffle(len(s.misses), func(i, j int) { s.misses[i], s.misses[j] = s.misses[j], s.misses[i] })
	return s
}

func (s *stream) next() op {
	if len(s.block) == 0 {
		for _, q := range quota {
			for i := 0; i < q.n; i++ {
				s.block = append(s.block, q.class)
			}
		}
		s.r.shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	class := s.block[0]
	s.block = s.block[1:]
	switch class {
	case classHit:
		i := s.r.intn(s.u.hot)
		req := s.u.tuples[i]
		// Alias spellings of one cache key: Θ = 1 spelled out (with an
		// inert delay seed) on multi-theta, a fault seed at density 0
		// on multi-faulty.
		if i >= hotPlain && s.r.intn(2) == 0 {
			if req.Scheme == "multi-theta" {
				req.Config.Theta, req.Config.ThetaSeed = 1, 1+s.r.next()%1000
			} else {
				req.Config.FaultSeed = 1 + s.r.next()%1000
			}
		}
		return runOp(classHit, req, i, "")
	case classMiss:
		i := s.misses[s.mpos]
		s.mpos = (s.mpos + 1) % len(s.misses)
		return runOp(classMiss, s.u.tuples[i], i, "")
	case classInvalid:
		req, field := invalidate(s.u.tuples[s.r.intn(len(s.u.tuples))], s.r.intn(len(mutations)))
		return runOp(classInvalid, req, -1, field)
	default:
		if s.r.intn(2) == 0 {
			return op{class: classDashboard, method: http.MethodGet, path: "/v1/runs?limit=50", tuple: -1}
		}
		return op{class: classDashboard, method: http.MethodGet, path: "/metrics.prom", tuple: -1}
	}
}

func runOp(class string, req serve.RunRequest, tuple int, field string) op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // RunRequest is plain data; marshalling cannot fail
	}
	return op{class: class, method: http.MethodPost, path: "/v1/run", body: body, tuple: tuple, field: field}
}

// mutations turn a valid tuple into one bsmpd must reject with a
// structured 400 naming the returned field.
var mutations = []func(r *serve.RunRequest) string{
	func(r *serve.RunRequest) string { r.M = 0; return "m" },
	func(r *serve.RunRequest) string { r.P = 3; return "p" }, // every n in the universe is a power of two
	func(r *serve.RunRequest) string { r.Steps = 0; return "steps" },
	func(r *serve.RunRequest) string { r.N = 1 << 17; return "n" }, // above the daemon's size cap
	func(r *serve.RunRequest) string {
		*r = d1Tuple(*r, "multi")
		r.Config.Theta = 2 // lockstep multi takes no delay ratio
		return "theta"
	},
	func(r *serve.RunRequest) string {
		*r = d1Tuple(*r, "multi-theta")
		r.Config.Theta = 0.5
		return "theta"
	},
	func(r *serve.RunRequest) string {
		*r = d1Tuple(*r, "multi-faulty")
		r.Config.Faults = 1.5
		return "faults"
	},
}

func invalidate(req serve.RunRequest, k int) (serve.RunRequest, string) {
	field := mutations[k](&req)
	return req, field
}

// d1Tuple is a valid d = 1 tuple of scheme with req's guest.
func d1Tuple(req serve.RunRequest, scheme string) serve.RunRequest {
	return serve.RunRequest{Scheme: scheme, D: 1, N: 64, P: 4, M: 4, Steps: 8, Guest: req.Guest, Seed: req.Seed}
}
