#!/usr/bin/env bash
# Topology lint: mesh geometry has exactly one home.
#
# The pluggable topology layer (internal/topology) owns grid geometry —
# coordinate mapping, integer roots, distances — and internal/network is
# the one facade allowed to re-export its coordinate maps (its
# Coord/Index methods delegate to the embedded Topology). Everything
# else must consume geometry through those two packages. This lint fails
# when another definition creeps back in:
#
#   1. a method named Coord/Coord3/Index/Index3 over integer grid
#      coordinates defined outside internal/topology + internal/network
#      (lattice.Indexer's Index(p Point) maps lattice points, not grid
#      nodes, and is excluded by the int-signature anchor — as are call
#      sites like ma.Coord(i), which do not start with "func (");
#   2. an integer root computed outside internal/topology: a loop whose
#      condition multiplies a variable by itself, as in (r+1)*(r+1) <= n
#      or side*side < n, is a copy of topology.IntRoot, and such loops
#      wrap negative near math.MaxInt and never end. Callers take roots
#      from topology.IntRoot (analytic.IntSqrtExact and IntCbrtExact are
#      panicking wrappers over it). The bsmpbench module is not checked
#      yet: its daemon still carries a copy, to be replaced in the next
#      change to the benchmark.
#
# Run from the repository root: scripts/topolint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

GEOM=$(grep -rnE 'func \([^)]*\) (Coord3?|Index3?)\([a-z, ]+ int\)' --include='*.go' . |
  grep -v '^\./internal/topology/' | grep -v '^\./internal/network/' || true)
if [ -n "$GEOM" ]; then
  echo "topolint: grid coordinate methods defined outside internal/topology + internal/network:" >&2
  echo "$GEOM" >&2
  fail=1
fi

ROOTS=$(grep -rnE 'for [^{]*\b([a-z][A-Za-z0-9_.]*)(\+1)?\)?\*\(?\1\b' --include='*.go' . |
  grep -v '^\./internal/topology/' | grep -v '^\./bsmpbench/' || true)
if [ -n "$ROOTS" ]; then
  echo "topolint: integer roots computed outside internal/topology (use topology.IntRoot):" >&2
  echo "$ROOTS" >&2
  fail=1
fi

[ "$fail" = 0 ] || exit 1
echo "topolint: OK"
