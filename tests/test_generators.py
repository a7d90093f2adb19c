import hashlib

import pytest

from minorcolor import (
    Graph,
    ResourceLimitExceeded,
    certify,
    clique_paste,
    complete_multipartite,
    min_degree_vertex,
    write_edge_list,
)
from minorcolor.generators import GenSpec, filtered_random, generate

# Smallest complete-minor order each named block excludes (oracle-exact);
# pasting blocks on cliques preserves these.
BLOCK_MINOR_FREE_ORDER = {
    (2, 2, 2, 2, 2): 8,
    (2, 2, 2, 3, 3): 9,
    (1, 2, 2, 2, 2, 2): 9,
    (1, 2, 2, 2, 2): 8,
}


def test_equal_specs_produce_identical_edge_lists():
    for family, kwargs in [
        ("forest", {"n": 20, "seed": 13}),
        ("series_parallel", {"n": 15, "seed": 13}),
        ("planar_triangulation", {"n": 18, "seed": 13}),
        ("filtered_random", {"n": 9, "seed": 13, "forbid": 5}),
        ("clique_paste", {"blocks": ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)), "clique_size": 5, "seed": 13}),
    ]:
        a = generate(GenSpec(family, **kwargs))
        b = generate(GenSpec(family, **kwargs))
        assert write_edge_list(a) == write_edge_list(b), family


def test_different_seeds_vary():
    a = generate(GenSpec("planar_triangulation", n=15, seed=0))
    b = generate(GenSpec("planar_triangulation", n=15, seed=1))
    assert write_edge_list(a) != write_edge_list(b)


def test_forest_family():
    for seed in range(6):
        g = generate(GenSpec("forest", n=10, seed=seed))
        assert g.m <= g.n - 1
        assert certify(g, 3)  # no triangle minor = acyclic


def test_series_parallel_family():
    for seed in range(6):
        g = generate(GenSpec("series_parallel", n=10, seed=seed))
        assert certify(g, 4)


def test_triangulation_edge_count_exact():
    for n in (3, 5, 9, 20, 30):
        g = generate(GenSpec("planar_triangulation", n=n, seed=n))
        assert g.m == 3 * g.n - 6
    with pytest.raises(ValueError):
        generate(GenSpec("planar_triangulation", n=2, seed=0))


def test_triangulations_are_k5_minor_free():
    for seed in range(4):
        g = generate(GenSpec("planar_triangulation", n=11, seed=seed))
        assert certify(g, 5)


def test_multipartite_blocks():
    block = complete_multipartite((2, 2, 2, 2, 2))
    assert (block.n, block.m) == (10, 40)
    assert block.m == 6 * block.n - 20

    near_tight = complete_multipartite((1, 2, 2, 2, 2))
    assert near_tight.n == 9
    assert min_degree_vertex(near_tight)[1] == 7

    with pytest.raises(ValueError):
        complete_multipartite((2, 0, 2))


def test_multipartite_n_consistency_check():
    with pytest.raises(ValueError):
        generate(GenSpec("complete_multipartite", n=11, parts=(2, 2, 2, 2, 2)))


def test_clique_paste_counts():
    # pasting j blocks on k-cliques: n = sum(n_i) - (j-1)k and
    # m = sum(m_i) - (j-1) * k(k-1)/2
    blocks = ((2, 2, 2, 2, 2),) * 3
    for seed in range(4):
        g = clique_paste(blocks, 5, seed)
        assert g.n == 3 * 10 - 2 * 5
        assert g.m == 3 * 40 - 2 * 10
        assert g.m == 6 * g.n - 20  # stays on the extremal line

    two = clique_paste(((1, 2, 2, 2, 2, 2), (1, 2, 2, 2, 2, 2)), 6, 1)
    assert two.n == 11 + 11 - 6
    assert two.m == 50 + 50 - 15
    assert two.m == 7 * two.n - 27


def test_clique_paste_infeasible_clique():
    with pytest.raises(ValueError):
        clique_paste(((2, 2, 2, 2, 2),) * 2, 6, 0)  # blocks have no 6-clique
    with pytest.raises(ValueError):
        # five parts give clique number 5, so 6-clique pasting is impossible
        clique_paste(((2, 2, 2, 3, 3), (1, 2, 2, 2, 2, 2)), 6, 0)


def test_clique_paste_refuses_bad_arguments():
    with pytest.raises(ValueError, match="^clique size must be >= 1$"):
        clique_paste(((2, 2),), 0, 0)
    with pytest.raises(ValueError, match="^need at least one block$"):
        clique_paste((), 2, 0)
    with pytest.raises(ValueError, match=r"^block \(1, 1\) has no 3-clique to paste on$"):
        clique_paste(((2, 2, 2), (1, 1)), 3, 0)
    spec = GenSpec("clique_paste", n=99, blocks=((2, 2, 2, 2, 2),), clique_size=5)
    with pytest.raises(ValueError, match="^blocks paste to 10 vertices, spec says n=99$"):
        generate(spec)


def test_series_parallel_single_vertex():
    g = generate(GenSpec("series_parallel", n=1))
    assert (g.vertices, g.m) == ((0,), 0)


def test_filtered_random_stops_when_no_pair_is_left():
    # no 3-vertex graph has a K4 minor, so every pair is kept
    assert filtered_random(3, 0, 4) == Graph.complete(3)


def test_filtered_random_respects_forbidden_minor():
    for seed in range(4):
        g = generate(GenSpec("filtered_random", n=9, seed=seed, forbid=5))
        assert certify(g, 5)
        assert g.n == 9


def test_filtered_random_is_reasonably_dense():
    g = generate(GenSpec("filtered_random", n=10, seed=3, forbid=6, max_rejects=40))
    # maximal K6-minor-free graphs on 10 vertices carry 4n-10 = 30 edges
    assert g.m >= 15


def test_filtered_random_propagates_cap():
    with pytest.raises(ResourceLimitExceeded):
        filtered_random(45, 0, 5)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(GenSpec("unknown_family", n=5))
    with pytest.raises(ValueError):
        generate(GenSpec("complete_multipartite", n=5))
    with pytest.raises(ValueError):
        generate(GenSpec("clique_paste", blocks=((2, 2),)))
    with pytest.raises(ValueError):
        generate(GenSpec("filtered_random", n=5))
    with pytest.raises(ValueError):
        generate(GenSpec("forest"))


def test_certify_named_examples():
    assert certify(generate(GenSpec("forest", n=8, seed=0)), 3)
    assert certify(generate(GenSpec("planar_triangulation", n=12, seed=0)), 5)
    assert not certify(Graph.complete(6), 6)


def test_recorded_block_orders_are_exact():
    for parts, order in BLOCK_MINOR_FREE_ORDER.items():
        block = complete_multipartite(parts)
        assert certify(block, order), parts
        assert not certify(block, order - 1), parts


def _filtered_random_cases():
    for n in (9, 10):
        for forbid in (5, 6, 7):
            for seed in range(3):
                yield f"{n} {forbid} {seed}", filtered_random(n, seed, forbid)


def _filtered_random_torso_cases():
    # most "none" calls of these gens are decided by torso certificates
    for forbid in (6, 7):
        yield f"11 {forbid} 0", filtered_random(11, 0, forbid)


def _clique_paste_cases():
    for parts in BLOCK_MINOR_FREE_ORDER:
        for blocks in (2, 3, 4):
            for seed in range(3):
                yield f"{parts} {blocks} {seed}", clique_paste(
                    (parts,) * blocks, len(parts), seed
                )


# sha256 over the labelled edge lists of every case: pins each generator's
# output exactly, not only the properties the tests above check.
@pytest.mark.parametrize(
    "cases, digest",
    [
        (
            _filtered_random_cases,
            "0d14a5d083a10c23bd9d52afcc403c1af14fea05c7cde0ae82b3edc0bd50ee1a",
        ),
        (
            _filtered_random_torso_cases,
            "c46d2499df84e232fa9c5bb02efc18d423efc7f248e1419ad854608d82465332",
        ),
        (
            _clique_paste_cases,
            "ebdac24da75f2d07e46491fc9ff0af959cd749987d0e897f2a3cdbea8399c159",
        ),
    ],
    ids=["filtered_random", "filtered_random_torsos", "clique_paste"],
)
def test_generator_output_golden(cases, digest):
    h = hashlib.sha256()
    for label, g in cases():
        h.update(f"{label}\n{write_edge_list(g)}".encode())
    assert h.hexdigest() == digest


def test_filtered_random_never_asks_the_oracle_about_a_rejected_pair(monkeypatch):
    import minorcolor.generators as generators

    oracle = generators.has_clique_minor
    state = {"edges": set(), "rejected": set(), "calls": 0}

    def watched(g, t, **kwargs):
        (pair,) = set(g.edges()) - state["edges"]
        assert pair not in state["rejected"], pair
        state["calls"] += 1
        model = oracle(g, t, **kwargs)
        if model is None:
            state["edges"].add(pair)
        else:
            state["rejected"].add(pair)
        return model

    monkeypatch.setattr(generators, "has_clique_minor", watched)
    for forbid in (6, 7):
        state.update(edges=set(), rejected=set())
        g = filtered_random(11, 0, forbid)
        assert set(g.edges()) == state["edges"]
    assert state["calls"] > 0
