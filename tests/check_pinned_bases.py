"""Judge the bases that CI pins by digest with the O(N)-memory hash twin.

CI pins the sha256 of ``stargrid basis`` at (2000, 3000) and (3000, 2000),
which is :func:`stargrid.build_basis` written one landmark per line.  Only
the structural verifier judges those bases in the package.  This script
checks each with :func:`reference.hash_is_resolving`, which compares the
codes of colliding hashes exactly, and checks five one-drop mutants of
each: the first and the last landmark dropped, and three seeded others.
A minimum basis with a landmark dropped cannot resolve, so every mutant
must fail, with the witness :func:`stargrid.is_resolving` names.

It is not a pytest module, as each check hashes six million codes.  Run it
from the repository root::

    PYTHONPATH=src python tests/check_pinned_bases.py

It prints one line per check and exits 1 if any check disagrees.
"""

import random
import sys
import time

from reference import hash_is_resolving

from stargrid import GridGraph, build_basis, is_resolving, vertex_name

GRIDS = [(2000, 3000), (3000, 2000)]
SEEDED_DROPS = 3


def _cases(base, rnd):
    """(name, landmarks, resolves): the basis, then its one-drop mutants."""
    k = len(base)
    yield "basis", base, True
    for p in [0, k - 1, *rnd.sample(range(1, k - 1), SEEDED_DROPS)]:
        yield f"drop {vertex_name(base[p])}", base[:p] + base[p + 1:], False


def main() -> int:
    rnd = random.Random(2000)
    failed = 0
    for m, n in GRIDS:
        g = GridGraph(m, n)
        for name, landmarks, resolves in _cases(build_basis(m, n).landmarks, rnd):
            start = time.perf_counter()
            got = hash_is_resolving(g, landmarks)
            seconds = time.perf_counter() - start
            want = is_resolving(g, landmarks)
            ok = got.resolving is resolves and (got.resolving, got.witness) == (
                want.resolving, want.witness)
            failed += not ok
            verdict = "resolving" if got else "collide: " + " ".join(map(vertex_name, got.witness))
            print(f"({m}, {n}) {name}: {verdict} in {seconds:.2f} s{'' if ok else '  MISMATCH'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
