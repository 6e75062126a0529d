"""The benchmark's workloads: inputs made from a seed, the timed operations,
the output checks, and one deliberate corruption per workload that the
self-test uses to show the checks are not vacuous.

Each workload is built with ``small=True`` by the self-test, which runs the
same code on a reduced input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

import rootatlas
from rootatlas import classify
from speedref import work_clock

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "baseline.json")) as _f:
    BASELINE = json.load(_f)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Atlas:
    """``build_atlas`` then ``atlas_to_json``, serialized as the CLI does.

    One operation is one atlas entry, timed at ``classify.build_entry``,
    which ``build_atlas`` calls once per Cartan type.
    """

    name = "atlas-r5b2"
    expected_layers = (
        "rootsys.weyl_orbit",
        "repring.dominant_weight_multiplicities",
        "repring.weight_multiplicities",
        "repring.tensor_decompose",
        "grading.generate_relations",
        "grading.universal_grading_group",
        "grading.matches_fundamental_group",
        "lattice.cokernel",
        "lattice.smith_normal_form",
        "lattice.diagrams",
        "lattice.center_char_group",
        "classify.label_diagram",
        "classify.hasse_edges",
        "classify.atlas_to_json",
    )

    def __init__(self, seed: int, small: bool = False):
        # the inputs are fixed: the seed is recorded but has no effect
        self.max_rank, self.bound = (3, 2) if small else (5, 2)
        self.entries = len(rootatlas.admissible_irreducible_types(self.max_rank))

    def run(self, ops: list) -> str:
        build_entry = classify.build_entry

        def timed_entry(*args, **kwargs):
            t0 = work_clock()
            entry = build_entry(*args, **kwargs)
            ops.append((t0, work_clock() - t0))
            return entry

        classify.build_entry = timed_entry
        try:
            entries = rootatlas.build_atlas(max_rank=self.max_rank, bound=self.bound)
        finally:
            classify.build_entry = build_entry
        doc = rootatlas.atlas_to_json(entries, max_rank=self.max_rank, bound=self.bound)
        return json.dumps(doc, indent=2) + "\n"

    def attempted(self) -> int:
        return self.entries

    def check(self, text: str, ops: list) -> list[str]:
        failures = []
        if len(ops) != self.entries:
            failures.append(
                f"timed {len(ops)} calls of classify.build_entry, expected "
                f"{self.entries}: the per-entry timer no longer sees the atlas loop"
            )
        pinned = BASELINE["atlas_sha256"][f"r{self.max_rank}b{self.bound}"]
        if sha256_text(text) != pinned:
            failures.append("atlas JSON differs from the pinned digest")
        for entry in json.loads(text)["entries"]:
            if entry["grading"]["matches_fundamental_group"] is not True:
                failures.append(f"{entry['type']}: grading group does not match")
        return failures

    @staticmethod
    def corrupt(text: str) -> str:
        return text.replace('"matches_fundamental_group": true', '"matches_fundamental_group": false', 1)


class TensorCold:
    """Distinct seeded pairs through ``tensor_decompose``, none repeated.

    The pool is every pair of dominant weights with coordinate sum 1 or 2
    over the types below whose smaller factor has dimension at most
    ``MAX_SMALLER_DIM``.  Sorted by the two dimensions, a cost proxy, the
    pool is cut into strata of three neighbours and two pairs are drawn from
    each (one in forty at the small size), so every seed gets nearly the
    same amount of work.
    """

    name = "tensor-cold"
    types = ("F4", "E6", "E7", "B5", "A5")
    expected_layers = (
        "rootsys.weyl_orbit",
        "repring.dominant_weight_multiplicities",
        "repring.weight_multiplicities",
        "repring.tensor_decompose",
    )
    MAX_SMALLER_DIM = 30_000

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        stratum, keep = (40, 1) if small else (3, 2)
        pool = []
        for name in self.types:
            rs = rootatlas.build_root_system(rootatlas.parse_cartan_type(name))
            weights = [w for w in rootatlas.dominant_weights_up_to(rs, 2) if sum(w)]
            dims = {w: rootatlas.weyl_dim(rs, w) for w in weights}
            ranked = sorted(
                (sorted((dims[lam], dims[mu])), lam, mu)
                for lam, mu in itertools.combinations_with_replacement(weights, 2)
                if min(dims[lam], dims[mu]) <= self.MAX_SMALLER_DIM
            )
            pool.extend((rs, lam, mu) for _, lam, mu in ranked)
        rng = random.Random(seed)
        self.pairs = []
        for start in range(0, len(pool), stratum):
            group = pool[start : start + stratum]
            self.pairs.extend(rng.sample(group, min(keep, len(group))))
        rng.shuffle(self.pairs)

    def run(self, ops: list) -> list:
        tensor_decompose = rootatlas.tensor_decompose
        clock = work_clock
        out = []
        for rs, lam, mu in self.pairs:
            t0 = clock()
            dec = tensor_decompose(rs, lam, mu)
            ops.append((t0, clock() - t0))
            out.append(dec)
        return out

    def attempted(self) -> int:
        return len(self.pairs)

    def check(self, decs: list, ops: list) -> list[str]:
        failures = []
        dims: dict = {}

        def dim(rs, w):
            key = (rs.cartan_type, w)
            if key not in dims:
                dims[key] = rootatlas.weyl_dim(rs, w)
            return dims[key]

        for (rs, lam, mu), dec in zip(self.pairs, decs):
            if any(m <= 0 for m in dec.values()):
                failures.append(f"{rs.cartan_type} {lam} x {mu}: nonpositive multiplicity")
            elif sum(m * dim(rs, nu) for nu, m in dec.items()) != dim(rs, lam) * dim(rs, mu):
                failures.append(f"{rs.cartan_type} {lam} x {mu}: dimensions do not add up")
        pinned = None if self.small else BASELINE["tensor_cold_sha256"].get(str(self.seed))
        if pinned is not None and sha256_text(self.digest_text(decs)) != pinned:
            failures.append(f"decompositions differ from the digest pinned for seed {self.seed}")
        return failures

    def digest_text(self, decs: list) -> str:
        return json.dumps(
            [
                [str(rs.cartan_type), lam, mu, rootatlas.sorted_decomposition(dec)]
                for (rs, lam, mu), dec in zip(self.pairs, decs)
            ]
        )

    @staticmethod
    def corrupt(decs: list) -> list:
        first = dict(decs[0])
        nu = next(iter(first))
        first[nu] += 1
        return [first] + decs[1:]


class EquivWarm:
    """All unordered pairs of A3 weights with coordinates 0..2, in seeded
    order, through ``tensor_equivalent(bound=3, depth=4)``.

    Most of the ``tensor_decompose`` calls the word search makes repeat an
    earlier one, so this workload runs on the library's warm caches.
    """

    name = "equiv-warm"
    expected_layers = (
        "rootsys.weyl_orbit",
        "repring.dominant_weight_multiplicities",
        "repring.weight_multiplicities",
        "repring.tensor_decompose",
        "grading.tensor_equivalent",
    )

    def __init__(self, seed: int, small: bool = False):
        self.rs = rootatlas.build_root_system(rootatlas.parse_cartan_type("A3"))
        coords, self.bound, self.depth = (2, 2, 3) if small else (3, 3, 4)
        weights = list(itertools.product(range(coords), repeat=3))
        self.pairs = list(itertools.combinations_with_replacement(weights, 2))
        random.Random(seed).shuffle(self.pairs)

    def run(self, ops: list) -> list:
        tensor_equivalent = rootatlas.tensor_equivalent
        clock = work_clock
        rs, bound, depth = self.rs, self.bound, self.depth
        out = []
        for a, b in self.pairs:
            t0 = clock()
            word = tensor_equivalent(rs, a, b, bound=bound, depth=depth)
            ops.append((t0, clock() - t0))
            out.append(word)
        return out

    def attempted(self) -> int:
        return len(self.pairs)

    def check(self, words: list, ops: list) -> list[str]:
        """A pair has a certificate exactly when the A3 class oracle puts both
        weights in one class; each certificate replays through a fold of
        pairwise tensor products.  The search is complete at these sizes."""
        failures = []
        for (a, b), word in zip(self.pairs, words):
            same_class = self.weight_class(a) == self.weight_class(b)
            if (word is not None) != same_class:
                failures.append(f"{a} ~ {b}: certificate {word} but classes equal is {same_class}")
            elif word is not None and not self.replays(word, a, b):
                failures.append(f"{a} ~ {b}: certificate {word} does not replay")
        return failures

    @staticmethod
    def weight_class(w) -> int:
        return (w[0] + 2 * w[1] + 3 * w[2]) % 4

    def replays(self, word, a, b) -> bool:
        if len(word) == 1:
            return word[0] == a == b
        if len(word) > self.depth or any(min(w) < 0 or sum(w) > self.bound for w in word):
            return False
        constituents = {word[0]}
        for letter in word[1:]:
            constituents = {
                nu
                for head in constituents
                for nu in rootatlas.tensor_decompose(self.rs, head, letter)
            }
        return a in constituents and b in constituents

    @staticmethod
    def corrupt(words: list) -> list:
        i = next(i for i, w in enumerate(words) if w is not None and len(w) > 1)
        return words[:i] + [words[i][:1]] + words[i + 1 :]


WORKLOADS = {w.name: w for w in (Atlas, TensorCold, EquivWarm)}
