"""The Weyl character formula as an oracle for the weight multiplicities.

chi_lam * A_rho = A_(lam+rho), where A_nu is the alternant
sum over w in W of sign(w) e^(w nu) (Humphreys, Introduction to Lie
Algebras and Representation Theory, 24.3).  A_rho is not a zero divisor,
so the identity fixes chi_lam.  The alternants read only ``cartan_matrix``:
a breadth-first search over the simple reflections finds W nu with its
signs, so neither ``weyl_orbit`` nor the straightening takes part.

The test suite imports ``character_defect``; this file is not collected as
a test module, so a case too slow for the suite runs as a script:

    PYTHONPATH=src python tests/weyl_character.py E6 1,0,0,0,0,0
"""

import sys
from collections import Counter
from operator import add

from rootatlas.repring import weight_multiplicities
from rootatlas.rootsys import (
    RootSystem,
    build_root_system,
    cartan_matrix,
    parse_cartan_type,
    parse_weight,
)


def alternant(cartan, nu) -> dict:
    """W nu with signs, {w nu: sign(w)}, for a strictly dominant ``nu``.

    On fundamental-weight coordinates s_i subtracts nu_i times alpha_i,
    which is column i of the Cartan matrix (a row is wrong for every type
    that is not simply laced).  nu is regular, so the search reaches w nu
    first at depth length(w)."""
    cols = list(zip(*cartan))
    signs = {nu: 1}
    frontier = [nu]
    while frontier:
        reached = []
        for v in frontier:
            sign = -signs[v]
            for c, col in zip(v, cols):
                w = tuple(a - c * b for a, b in zip(v, col))
                if w not in signs:
                    signs[w] = sign
                    reached.append(w)
        frontier = reached
    return signs


def character_defect(rs: RootSystem, lam) -> dict:
    """The terms of chi_lam * A_rho - A_(lam+rho), with chi_lam read from
    ``weight_multiplicities``: empty exactly when the formula holds."""
    cartan = cartan_matrix(rs.cartan_type)
    character = weight_multiplicities(rs, lam).items()
    terms = Counter()
    for v, sign in alternant(cartan, (1,) * len(cartan)).items():
        for mu, m in character:
            terms[tuple(map(add, mu, v))] += sign * m
    terms.subtract(alternant(cartan, tuple(c + 1 for c in lam)))
    return {k: c for k, c in terms.items() if c}


def main(argv) -> int:
    name, text = argv
    t = parse_cartan_type(name)
    defect = character_defect(build_root_system(t), parse_weight(text, t.rank))
    if defect:
        print(f"{name} {text}: the Weyl character formula fails at {len(defect)} weights")
        return 1
    print(f"{name} {text}: the Weyl character formula holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
