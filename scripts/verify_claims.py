#!/usr/bin/env python3
"""Desk-scale verification of the package's quantitative claims.

Runs every closed-form identity and small-graph fact the library is built
around and prints one line per claim.  Slower than the unit tests in
places (it re-derives everything from scratch); expect roughly a minute.
"""

import math
import random
from fractions import Fraction

from minorcolor import (
    Graph,
    certify,
    clique_paste,
    color_by_contraction,
    complete_multipartite,
    edge_count_forces_minor,
    gamma_constant,
    greedy_degeneracy_color,
    has_clique_minor,
    max_independent_set,
    min_degree_vertex,
    table_row,
    chi_upper_bound_b,
    chi_upper_bound_c,
    validate_model,
)
from minorcolor.generators import GenSpec, generate
from minorcolor.minor import _absence_certificate, _find_clique, _reduce
from minorcolor.oracles import (
    brute_force_chromatic_number,
    brute_force_has_minor,
    brute_force_max_independent_set,
)

FAILURES = []


def claim(label: str, ok: bool) -> None:
    print(f"  [{'ok' if ok else 'XX'}] {label}")
    if not ok:
        FAILURES.append(label)


def main() -> int:
    print("bound table (t, delta, alpha, chi):")
    expected = {
        2: (1, 1, 2), 3: (2, 1, 3), 4: (5, 2, 5), 5: (7, 2, 7), 6: (9, 2, 9),
        7: (11, 2, 11), 8: (13, 2, 13), 9: (21, 3, 20), 10: (25, 3, 24),
    }
    for t, triple in expected.items():
        row = table_row(t)
        claim(f"t={t}: ({row.delta}, {row.alpha}, {row.chi_bound})",
              (row.delta, row.alpha, row.chi_bound) == triple)

    print("closed forms:")
    claim("first closed form at (21, 9) = 229/11, floor 20",
          chi_upper_bound_b(21, 9) == Fraction(229, 11)
          and math.floor(chi_upper_bound_b(21, 9)) == 20)
    claim("first closed form at (25, 10) = 322/13, floor 24",
          chi_upper_bound_b(25, 10) == Fraction(322, 13)
          and math.floor(chi_upper_bound_b(25, 10)) == 24)
    claim("second closed form at (21, 9) floors to 21",
          math.floor(chi_upper_bound_c(21, 9)) == 21)
    gamma = gamma_constant()
    claim("gamma solves 126*gamma + sqrt(5392) = 80",
          abs(126 * gamma + math.sqrt(5392) - 80) < 1e-12)
    claim("gamma rounds to 0.0521", round(gamma, 4) == 0.0521)

    print("extremal blocks:")
    b10 = complete_multipartite((2, 2, 2, 2, 2))
    claim("K_{2,2,2,2,2}: n=10, m=40 = 6n-20",
          (b10.n, b10.m) == (10, 40) and b10.m == 6 * b10.n - 20)
    claim("K_{2,2,2,2,2} excludes the order-8 minor", certify(b10, 8))
    claim("K_{2,2,2,2,2} exceeds the order-7 edge bound",
          edge_count_forces_minor(b10, 7))
    claim("chromatic number of K_{2,2,2,2,2} is 5",
          brute_force_chromatic_number(b10) == 5)

    b12 = complete_multipartite((2, 2, 2, 3, 3))
    claim("K_{2,2,2,3,3}: n=12, m=57 = 7n-27",
          (b12.n, b12.m) == (12, 57) and b12.m == 7 * b12.n - 27)
    claim("K_{2,2,2,3,3} excludes the order-9 minor", certify(b12, 9))

    b11 = complete_multipartite((1, 2, 2, 2, 2, 2))
    claim("K_{1,2,2,2,2,2}: n=11, m=50 = 7n-27",
          (b11.n, b11.m) == (11, 50) and b11.m == 7 * b11.n - 27)
    claim("K_{1,2,2,2,2,2} excludes the order-9 minor", certify(b11, 9))

    paste = clique_paste(((2, 2, 2, 2, 2),) * 3, 5, 0)
    claim("3-block paste stays on the 6n-20 line", paste.m == 6 * paste.n - 20)

    print("the erroneous tightness example:")
    g9 = complete_multipartite((1, 2, 2, 2, 2))
    model = has_clique_minor(g9, 7)
    claim("K_{1,2,2,2,2} has min degree 7", min_degree_vertex(g9)[1] == 7)
    claim("K_{1,2,2,2,2} has 32 > 5*9-15 = 30 edges, forcing the order-7 minor",
          g9.m == 32 and edge_count_forces_minor(g9, 7))
    claim("the oracle exhibits a valid order-7 witness",
          model is not None and validate_model(g9, model))

    print("reductions before the branch-set search:")
    grid = Graph(range(16), [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
                 + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)])
    k5_pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    subdivided_k5 = Graph(range(15), [e for i, (u, v) in enumerate(k5_pairs)
                                      for e in ((u, 5 + i), (v, 5 + i))])
    for label, g, t, expect in (
        ("stacked triangulation n=20",
         generate(GenSpec("planar_triangulation", n=20, seed=0)), 5, False),
        ("4x4 grid", grid, 5, False),
        ("subdivided K5", subdivided_k5, 5, True),
    ):
        model = has_clique_minor(g, t)
        valid = model is not None and validate_model(g, model)
        verdict = "found" if model is not None else "none"
        shown = valid if model is not None else "n/a"
        claim(f"{label} at t={t}: {verdict}, validate_model: {shown}",
              (model is not None) == expect and (model is None or valid))

    print("certificates of absence before the branch-set search:")
    petersen = Graph(range(10), [e for i in range(5) for e in
                                 ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))])
    grid5 = Graph(range(25), [(5 * r + c, 5 * r + c + 1) for r in range(5) for c in range(4)]
                  + [(5 * r + c, 5 * r + c + 5) for r in range(4) for c in range(5)])
    for label, g, t, expect in (
        ("K_{2,2,2,3,3}", b12, 9, "clique_count"),
        ("K_{1,2,2,2,2,2}", b11, 9, "clique_count"),
        ("Petersen", petersen, 6, "width"),
        ("4x4 grid", grid, 5, "planar"),
        ("5x5 grid", grid5, 6, "planar"),
    ):
        cert = _absence_certificate(_reduce(g, t)[0], t)
        kind = cert[0] if cert else "none"
        claim(f"{label} at t={t}: no minor, decided by {kind}",
              kind == expect and has_clique_minor(g, t) is None)

    print("branch-set search, where nothing before it decides:")
    wagner = Graph(range(8), [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    claim("Wagner graph V8 has no order-5 minor by the subset-enumeration oracle",
          not brute_force_has_minor(wagner, 5))
    for label, g, t, expect in (("Petersen", petersen, 5, True),
                                ("Wagner graph V8", wagner, 5, False)):
        adj = _reduce(g, t)[0]
        undecided = _find_clique(adj, t) is None and _absence_certificate(adj, t) is None
        model = has_clique_minor(g, t)
        valid = model is not None and validate_model(g, model)
        verdict = "found" if model is not None else "none"
        claim(f"{label} at t={t}: no clique or certificate, search says {verdict}",
              undecided and (model is not None) == expect and (model is None or valid))

    print("exact independent sets:")
    claim("Petersen: max_independent_set equals the subset-enumeration oracle",
          max_independent_set(petersen) == brute_force_max_independent_set(petersen))
    rng = random.Random(7)
    ok = True
    for _ in range(20):
        n = rng.randint(12, 14)
        p = rng.uniform(0.2, 0.7)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])
        ok = ok and max_independent_set(g) == brute_force_max_independent_set(g)
    claim("20 seeded graphs on 12-14 vertices: equal to the oracle, tie-break included", ok)

    print("coloring across generated families:")
    for t, family, n in ((2, "forest", 25), (3, "series_parallel", 20),
                         (4, "planar_triangulation", 25)):
        row = table_row(t)
        ok = True
        for seed in range(20):
            g = generate(GenSpec(family, n=n, seed=seed))
            rep = color_by_contraction(g, t, row.delta, row.alpha)
            greedy = greedy_degeneracy_color(g)
            ok = ok and rep.proper and rep.colors_used <= row.chi_bound
            ok = ok and greedy.colors_used() <= row.delta + 1
        claim(f"{family}: 20 seeds within {row.chi_bound} colors", ok)

    print("independence guarantees, sampled:")
    ok = True
    for seed in range(30):
        g = generate(GenSpec("filtered_random", n=10, seed=seed, forbid=6))
        alpha = len(max_independent_set(g))
        ok = ok and alpha >= 2
    claim("order-6-minor-free samples on 10 vertices all have alpha >= 2", ok)

    print()
    if FAILURES:
        print(f"{len(FAILURES)} claim(s) failed:")
        for label in FAILURES:
            print(f"  - {label}")
        return 1
    print("all claims verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
