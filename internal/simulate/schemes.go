package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/dag"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"bsmp/internal/obs"
)

// SchemeConfig carries the per-run knobs a registered scheme may consume.
// The zero value selects every scheme's default (paper-optimal) settings.
type SchemeConfig struct {
	// Leaf is the uniprocessor recursion leaf (UniDCContext leafSize, blocked
	// leafWidth/leafSpan); 0 selects the scheme default.
	Leaf int
	// Multi configures the multiprocessor schemes (strip/span overrides
	// and mechanism ablations).
	Multi MultiOptions
}

// Scheme is a named simulation algorithm from the paper's ladder,
// runnable through a single signature. Uniprocessor schemes require
// p = 1; unidc additionally requires m = 1 (Theorems 2 and 5) and a
// program with a dag view. Every scheme returns a MultiResult; the
// multiprocessor accounting fields are zero for uniprocessor schemes.
type Scheme struct {
	// Name is the registry key: "naive", "unidc", "blocked" or "multi".
	Name string
	// D is the mesh dimension the entry serves.
	D int
	// Multiproc reports whether the scheme exploits p > 1.
	Multiproc bool
	// SharedReplay reports that the scheme charges a modelled schedule
	// and takes its outputs from one functional replay of the guest
	// (replayGuest), so runs of one guest that differ only in p, Θ or
	// fault density can share that replay under WithSharedReplay. The
	// naive and uniprocessor schemes execute the guest for real.
	SharedReplay bool
	// Description is a one-line summary with the scheme's slowdown.
	Description string
	// Validate checks the scheme-specific parameter constraints beyond
	// the common ones (positivity, p <= n, p | n, overflow); nil means
	// no extra constraints. cfg carries the per-run knobs a scheme may
	// additionally constrain (the multi-theta delay ratio Θ).
	// ValidateParams and Run both consult it, so no tuple reachable
	// through the registry can panic an internal constructor.
	Validate func(n, p, m, steps int, cfg SchemeConfig) *ParamError
	// Run executes the scheme on an n-node guest with density m for
	// steps steps on p host processors, under ctx: every scheme polls
	// cancellation cooperatively and reports progress to any attached
	// Progress (see WithProgress). The registry wraps every entry so Run
	// validates its parameters before dispatching.
	Run func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error)
}

// dagView extracts the dag.Program behind a network program. No type can
// implement both interfaces directly (their Step methods conflict), so
// the dag view lives on the wrapped guest of an AsNetwork adapter.
func dagView(prog network.Program) (dag.Program, bool) {
	if an, ok := prog.(guest.AsNetwork); ok {
		if dp, ok := an.G.(dag.Program); ok {
			return dp, true
		}
	}
	return nil, false
}

// withValidation wraps a registry entry's Run so it checks the common
// and scheme-specific constraints before dispatching — the panic-free
// boundary holds even for callers that grab a Scheme and invoke Run
// directly instead of going through RunSchemeContext.
func withValidation(s Scheme) Scheme {
	inner := s.Run
	s.Run = func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
		if e := validateCommon(s.Name, s.D, n, p, m, steps); e != nil {
			return MultiResult{}, e
		}
		if s.Validate != nil {
			if e := s.Validate(n, p, m, steps, cfg); e != nil {
				return MultiResult{}, e
			}
		}
		return inner(ctx, n, p, m, steps, prog, cfg)
	}
	return s
}

func naiveScheme(d int) Scheme {
	return Scheme{
		Name: "naive", D: d, Multiproc: true,
		Description: "step-by-step mimicry (Prop. 1), slowdown Θ((n/p)^(1+1/d))",
		Validate: func(n, p, m, steps int, _ SchemeConfig) *ParamError {
			return validateNaiveShape(d, n, p)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, _ SchemeConfig) (MultiResult, error) {
			r, err := NaiveContext(ctx, d, n, p, m, steps, prog)
			return MultiResult{Result: r}, err
		},
	}
}

func unidcScheme(d int) Scheme {
	return Scheme{
		Name: "unidc", D: d, Multiproc: false,
		Description: "uniprocessor divide-and-conquer for m = 1 (Thms. 2/5), slowdown Θ(n log n)",
		Validate: func(n, p, m, steps int, _ SchemeConfig) *ParamError {
			if p != 1 {
				return perr("unidc", "p", "uniprocessor scheme requires p = 1", p)
			}
			if m != 1 {
				return perr("unidc", "m", "needs m=1 (Theorems 2 and 5)", m)
			}
			return shapeError("unidc", "n", d, n)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			dp, ok := dagView(prog)
			if !ok {
				return MultiResult{}, fmt.Errorf("simulate: scheme unidc needs a program with a dag view, got %T", prog)
			}
			r, err := UniDCContext(ctx, d, n, steps, cfg.Leaf, dp)
			return MultiResult{Result: r}, err
		},
	}
}

func blockedScheme(d int) Scheme {
	return Scheme{
		Name: "blocked", D: d, Multiproc: false,
		Description: "blocked uniprocessor scheme for general m (Thm. 3), slowdown Θ(n·min(n, m·Log(n/m)))",
		Validate:    uniprocOnly("blocked", d),
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			r, err := BlockedContext(ctx, d, n, m, steps, cfg.Leaf, prog)
			return MultiResult{Result: r}, err
		},
	}
}

// analyticScheme registers the d = 1 analytic fast path: same recursion
// and charge model as "blocked", but costs are computed without machine
// state and congruent subtrees replay as summed deltas, so volumes of
// 10^9+ vertices finish in seconds. Results carry no guest outputs
// (Outputs/Memories nil) — callers validate against the work/span laws
// and the Theorem 3 predictions instead of output comparison.
func analyticScheme() Scheme {
	return Scheme{
		Name: "blocked-analytic", D: 1, Multiproc: false,
		Description: "analytic replay of the blocked d = 1 recursion: exact model costs at huge n, no guest outputs",
		Validate:    uniprocOnly("blocked-analytic", 1),
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			r, err := BlockedAnalyticD1Context(ctx, n, m, steps, cfg.Leaf, prog)
			return MultiResult{Result: r}, err
		},
	}
}

// multiVariant is one registry name over the one multiprocessor engine:
// the knobs, Θ and the fault density, that the name admits.
type multiVariant struct {
	name, description string
	theta, faults     bool
}

// multiVariants lists the multiprocessor names in registry order.
var multiVariants = []multiVariant{
	{"multi", "multiprocessor rearrangement + cooperating mode (Thm. 4 / Thm. 1), slowdown Θ((n/p)·A(n, m, p))", false, false},
	{"multi-theta", "Θ-model multi: seeded delays in [dist, Θ·dist]; Θ = 1 recovers lockstep exactly", true, false},
	{"multi-faulty", "multi on a statically fault-masked mesh: largest live sub-mesh, charges stretched by detour and packing bounds", false, true},
}

// multiScheme registers variant v of the multiprocessor engine for
// dimension d. Every variant requires a d-shaped n and p: the host is a
// d-mesh too. A name refuses each knob it does not admit with a typed
// ParamError on that field. A fault-admitting name samples the fault
// mask over that host mesh (even at density 0, so its report is always
// attached) and runs on the mask's effective processor count; see
// faulty.go for the regime.
func multiScheme(d int, v multiVariant) Scheme {
	return Scheme{
		Name: v.name, D: d, Multiproc: true, SharedReplay: true,
		Description: v.description,
		Validate: func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
			if !v.theta && cfg.Multi.Theta != 0 {
				return perrF(v.name, "theta", "lockstep scheme takes no delay ratio; use scheme multi-theta", cfg.Multi.Theta)
			}
			if e := validateTheta(v.name, cfg.Multi.Theta); e != nil {
				return e
			}
			if !v.faults && cfg.Multi.Faults != 0 {
				return perrF(v.name, "faults", "fault-free scheme takes no fault density; use scheme multi-faulty", cfg.Multi.Faults)
			}
			if e := validateFaults(v.name, cfg.Multi.Faults); e != nil {
				return e
			}
			if e := shapeError(v.name, "n", d, n); e != nil {
				return e
			}
			return shapeError(v.name, "p", d, p)
		},
		Run: func(ctx context.Context, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
			opts := cfg.Multi
			var report *FaultReport
			if v.faults {
				plan, err := planFaults(d, n, p, m, opts.Faults, opts.FaultSeed)
				if err != nil {
					return MultiResult{}, err
				}
				p, report = plan.pEff, plan.report()
				opts.Faults, opts.FaultSeed = 0, 0 // consumed: the plan carries them
				opts.faultDistMul, opts.faultMemMul = plan.distMul, plan.memMul
			}
			res, err := MultiContext(ctx, d, n, p, m, steps, prog, opts)
			if err != nil {
				return MultiResult{}, err
			}
			res.Faults = report
			return res, nil
		},
	}
}

// Schemes is the registry of named simulation schemes, one entry per
// (algorithm, dimension) the repository implements: naive (d = 1, 2),
// unidc and blocked and multi and multi-theta and multi-faulty
// (d = 1, 2, 3). Callers — bsmp.RunSchemeContext, cmd/tradeoff,
// cmd/experiments, the E-REG experiment — select simulations by name
// and dimension instead of hard-wiring function calls.
var Schemes = func() []Scheme {
	s := []Scheme{
		withValidation(naiveScheme(1)), withValidation(naiveScheme(2)),
		withValidation(unidcScheme(1)), withValidation(unidcScheme(2)), withValidation(unidcScheme(3)),
		withValidation(blockedScheme(1)), withValidation(blockedScheme(2)), withValidation(blockedScheme(3)),
		withValidation(analyticScheme()),
	}
	for _, v := range multiVariants {
		for d := 1; d <= 3; d++ {
			s = append(s, withValidation(multiScheme(d, v)))
		}
	}
	return s
}()

// SchemeByName returns the registered scheme for (name, d).
func SchemeByName(name string, d int) (Scheme, error) {
	for _, s := range Schemes {
		if s.Name == name && s.D == d {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("simulate: no scheme %q for d=%d", name, d)
}

// RunSchemeContext looks up (name, d) in the registry and runs it under
// ctx: the selected scheme polls cancellation cooperatively at its
// recursion/phase/step boundaries, reports progress to any Progress
// attached with WithProgress, and records its span timeline into any
// Tracer attached with obs.WithTracer — the run gets one
// "scheme:<name>" root span whose "vtime" attribute is the run's full
// virtual makespan (Time + PrepTime).
func RunSchemeContext(ctx context.Context, name string, d, n, p, m, steps int, prog network.Program, cfg SchemeConfig) (MultiResult, error) {
	s, err := SchemeByName(name, d)
	if err != nil {
		return MultiResult{}, err
	}
	sp := obs.FromContext(ctx).Start("scheme:" + name)
	if sp != nil {
		sp.SetAttr("d", float64(d))
		sp.SetAttr("n", float64(n))
		sp.SetAttr("p", float64(p))
		sp.SetAttr("m", float64(m))
		sp.SetAttr("steps", float64(steps))
		if cfg.Multi.Theta != 0 {
			sp.SetAttr("theta", cfg.Multi.Theta)
		}
	}
	res, err := s.Run(ctx, n, p, m, steps, prog, cfg)
	if sp != nil {
		if err == nil {
			sp.SetAttr("vtime", float64(res.Time+res.PrepTime))
		}
		sp.End()
	}
	return res, err
}
