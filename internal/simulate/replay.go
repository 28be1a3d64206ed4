package simulate

import (
	"context"
	"sync"

	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// This file is the functional guest replay the multiprocessor engines
// take their outputs from, and the replay share that lets several runs
// of one guest use a single replay.
//
// A multi run charges a modelled schedule and then advances the guest
// exactly. The guest computation is the dag G_T(H) of Definition 3: it
// is fixed by (d, n, m, steps) and the program, while the host's p, the
// Θ-model delays and the fault mask only choose the schedule that
// covers it. Runs of one guest that differ only in those knobs
// therefore replay identical states, and a caller evaluating such a
// family (the /v1/sweep replay groups) attaches a share with
// WithSharedReplay so the family replays once.

// replayKey identifies a replayed guest: its geometry and the program
// identity the kernel memo also keys on (progFingerprint). The step
// count is not part of it: a guest held at k steps is the state every
// longer replay of the guest passes through.
type replayKey struct {
	d, n, m int
	prog    string
}

// replayShare holds the live guest of the most recent successful replay
// made under it, at the step that replay stopped, with the digest of
// that state. One slot bounds its memory by construction: a share costs
// at most one guest (its outputs, n·m memory words and neighbor
// offsets) however many guests its holder runs.
type replayShare struct {
	mu     sync.Mutex
	key    replayKey
	g      *network.Guest // nil when empty
	digest string         // network.Digest of g's state
}

type replayShareKeyType struct{}

// WithSharedReplay returns a context carrying a fresh replay share.
// Multiprocessor runs started under it that replay the same guest —
// equal (d, n, m) and program — after the first continue from the
// share's state instead of stepping the guest from step 0: a run of as
// many steps takes the digest the share holds for that state, and a run
// of more steps advances the guest in place and digests the new state
// once. Every run that replays under the share returns its final state
// as Result.Digest alone, with nil Outputs and Memory, since the state
// stays the share's: no run copies the guest. Their virtual times,
// ledgers and digests are exactly those of a run without the share. The
// share keeps the last successful replay only and lives as long as the
// context: scope it to one family of runs, never to a process.
func WithSharedReplay(ctx context.Context) context.Context {
	return context.WithValue(ctx, replayShareKeyType{}, new(replayShare))
}

func replayShareFrom(ctx context.Context) *replayShare {
	s, _ := ctx.Value(replayShareKeyType{}).(*replayShare)
	return s
}

// take empties the share and returns its guest and that guest's digest
// when the guest is key's at no more than steps steps; otherwise it
// leaves the share as it is and returns nil. The taker owns the guest
// until it stores it back, so a concurrent run of the same guest
// replays from step 0 instead of waiting.
func (s *replayShare) take(key replayKey, steps int) (*network.Guest, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.g
	if g == nil || s.key != key || g.Steps() > steps {
		return nil, ""
	}
	s.g = nil
	return g, s.digest
}

// store keeps g, a successful replay of key, and the digest of its
// state, replacing the slot.
func (s *replayShare) store(key replayKey, g *network.Guest, digest string) {
	s.mu.Lock()
	s.key, s.g, s.digest = key, g, digest
	s.mu.Unlock()
}

type replayHelpersKeyType struct{}

// WithReplayHelpers returns a context under which the guest replays of
// multiprocessor runs (replayGuest) may borrow helper goroutines from h
// to step half of each step of a guest of at least network.SplitMin
// nodes. Outputs and memories are exactly those of an unhelped replay.
func WithReplayHelpers(ctx context.Context, h network.Helpers) context.Context {
	return context.WithValue(ctx, replayHelpersKeyType{}, h)
}

func replayHelpersFrom(ctx context.Context) network.Helpers {
	h, _ := ctx.Value(replayHelpersKeyType{}).(network.Helpers)
	return h
}

// stepGuest advances a fresh guest on the d-dimensional n-node mesh
// exactly for steps steps under ec's cancellation hook.
func stepGuest(ec *execCtx, d, n, m, steps int, prog network.Program) (*network.Guest, error) {
	g := network.NewGuest(topology.NewMesh(d, n, n), m, prog)
	if err := g.Run(steps, ec.hook()); err != nil {
		return nil, err
	}
	return g, nil
}

// replayGuest advances the guest functionally (exactly) for steps steps
// under ec's cancellation hook, with the context's replay helpers
// (WithReplayHelpers), inside a "replay" span, and puts its final state
// in r. The span's "vertices" counts the vertices actually stepped,
// "resumed_from" the step the replay continued from and "helped_steps"
// the steps a helper took half of. Without a replay share r gets the
// guest's own outputs and memory. Under one (WithSharedReplay) a stored
// guest of the same (d, n, m) and program at k ≤ steps steps is advanced
// from k, a successful replay is kept for the next run with the digest
// of its state, taken once after the advance, and r gets that digest
// alone. "shared" then reports 1 when the share held exactly steps
// steps, so nothing was stepped or digested. A failed or cancelled
// advance keeps nothing, leaving the share empty, and a shorter run than
// the share's replays from step 0.
func replayGuest(ec *execCtx, r *Result, d, n, m, steps int, prog network.Program) error {
	sp := ec.tr.Start("replay")
	defer sp.End()
	share := replayShareFrom(ec.ctx)
	var key replayKey
	var g *network.Guest
	var digest string
	if share != nil {
		key = replayKey{d, n, m, progFingerprint(prog)}
		g, digest = share.take(key, steps)
	}
	if g == nil {
		g = network.NewGuest(topology.NewMesh(d, n, n), m, prog)
	}
	from, helped := g.Steps(), g.Helped()
	g.SetHelpers(replayHelpersFrom(ec.ctx))
	if err := g.Run(steps, ec.hook()); err != nil {
		return err
	}
	sp.SetAttr("vertices", float64(n)*float64(steps-from))
	sp.SetAttr("resumed_from", float64(from))
	sp.SetAttr("helped_steps", float64(g.Helped()-helped))
	if share == nil {
		r.Outputs, r.Memory = g.Outputs(), g.Memory()
		return nil
	}
	if digest != "" && from == steps {
		sp.SetAttr("shared", 1)
	} else {
		sp.SetAttr("shared", 0)
		digest = network.Digest(g.Outputs(), g.Memory())
	}
	share.store(key, g, digest)
	r.digest = digest
	return nil
}
