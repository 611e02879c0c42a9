from itertools import combinations

import pytest

from haan.errors import (
    BadK,
    BadPartition,
    BadT,
    GeneratorError,
    Not3Regular,
    NotAClique,
    NotRegular,
)
from haan.model import evaluate
from haan.reductions import (
    ReducedInstance,
    SourceGraph,
    gen_clique_bipartite_d2,
    gen_clique_vc_bipartite,
    gen_clique_vc_split,
    gen_halfsep_3regular,
    witness_from_clique,
    witness_from_clique_vc,
    witness_from_separator,
)

from oracles import brute_optimum, clique_exists, half_separator_exists

K3 = SourceGraph(3, [(0, 1), (0, 2), (1, 2)])
K4 = SourceGraph(4, list(combinations(range(4), 2)))
P3 = SourceGraph(3, [(0, 1), (1, 2)])
PRISM = SourceGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)])
# Two K4-minus-an-edge blocks bridged at their degree-2 vertices: 3-regular
# with a 2-cut, so an exact-size half separator exists for k = 2.
DOUBLE_DIAMOND = SourceGraph(8, [
    (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (0, 4), (1, 5),
])


def assert_complete_bipartite(inst, left, right):
    edges = set(inst.edges)
    assert len(edges) == len(left) * len(right)
    for u in left:
        for v in right:
            assert (min(u, v), max(u, v)) in edges
    left, right = set(left), set(right)
    for u, v in edges:
        assert (u in left and v in right) or (u in right and v in left)


def preferrer_counts(inst):
    counts = [0] * inst.n_houses
    for pref in inst.preferences:
        for h in pref:
            counts[h] += 1
    return counts


# -- regular-graph clique reduction (complete bipartite, d <= 2) --------------

def test_bip_d2_k4_counts_match_figure():
    red = gen_clique_bipartite_d2(K4, 3)
    assert red.instance.n_agents == 18
    assert red.instance.n_houses == 19
    assert red.target_envy == 6


def test_bip_d2_k1_target_is_degree():
    assert gen_clique_bipartite_d2(K4, 1).target_envy == 3


def test_bip_d2_structure():
    red = gen_clique_bipartite_d2(K4, 2)
    inst = red.instance
    assert max(len(p) for p in inst.preferences) <= 2
    vertex_agents = [a for ids in red.provenance["vertex_agents"].values() for a in ids]
    edge_agents = list(red.provenance["edge_agents"].values())
    assert sorted(vertex_agents + edge_agents) == list(range(inst.n_agents))
    assert_complete_bipartite(inst, vertex_agents, edge_agents)
    counts = preferrer_counts(inst)
    for h in red.provenance["dummy_houses"]:
        assert counts[h] == 0


def test_bip_d2_rejects_irregular_source():
    with pytest.raises(NotRegular):
        gen_clique_bipartite_d2(P3, 1)


def test_bip_d2_rejects_bad_k():
    with pytest.raises(BadK):
        gen_clique_bipartite_d2(K4, 0)
    with pytest.raises(BadK):
        gen_clique_bipartite_d2(K4, 5)


def test_bip_d2_flags_trivial_oversized_k():
    c3 = SourceGraph(3, [(0, 1), (1, 2), (0, 2)])
    red = gen_clique_bipartite_d2(c3, 3)  # k = 3 > delta = 2
    assert red.provenance["trivial"] is True
    assert gen_clique_bipartite_d2(c3, 2).provenance["trivial"] is False


def test_bip_d2_witness_hits_target_exactly():
    for k in (1, 2, 3):
        red = gen_clique_bipartite_d2(K4, k)
        w = witness_from_clique(red, list(range(k)))
        assert evaluate(red.instance, w).n_envious == red.target_envy


def test_bip_d2_witness_rejects_non_clique():
    red = gen_clique_bipartite_d2(K4, 2)
    with pytest.raises(NotAClique):
        witness_from_clique(red, [0])
    with pytest.raises(NotAClique):
        witness_from_clique(red, [0, 1, 2])
    p4 = SourceGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4, 2-regular
    red2 = gen_clique_bipartite_d2(p4, 2)
    with pytest.raises(NotAClique):
        witness_from_clique(red2, [0, 2])  # not adjacent in C4


def test_bip_d2_equivalence_small_families():
    cases = [
        (SourceGraph(2, [(0, 1)]), [1, 2]),          # K2, 1-regular
        (SourceGraph(4, [(0, 1), (2, 3)]), [1, 2, 3]),  # 2K2, 1-regular
        (SourceGraph(3, [(0, 1), (1, 2), (0, 2)]), [3]),  # C3, k > delta
    ]
    for g, ks in cases:
        for k in ks:
            red = gen_clique_bipartite_d2(g, k)
            opt = brute_optimum(red.instance)
            has = clique_exists(g.n_vertices, set(g.edges), k)
            reachable = opt is not None and opt[0] <= red.target_envy
            assert has == reachable, (g, k)


# -- half-separator reduction (3-regular, identical preferences, n = m) -------

def test_halfsep_k4_counts():
    red = gen_halfsep_3regular(K4, 2)
    assert red.instance.n_agents == red.instance.n_houses == 4
    assert red.provenance["params"]["t"] == 1
    assert red.target_envy == 2


def test_halfsep_k0():
    red = gen_halfsep_3regular(K4, 0)
    assert red.provenance["params"]["t"] == 2
    assert red.target_envy == 0


def test_halfsep_identical_preferences():
    red = gen_halfsep_3regular(PRISM, 3)
    prefs = set(red.instance.preferences)
    assert len(prefs) == 1
    assert red.instance.edges == PRISM.edges


def test_halfsep_rejects_non_3regular():
    c6 = SourceGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(Not3Regular):
        gen_halfsep_3regular(c6, 1)


def test_halfsep_equivalence_on_k4():
    for k in range(5):
        red = gen_halfsep_3regular(K4, k)
        opt = brute_optimum(red.instance)
        has = half_separator_exists(4, set(K4.edges), k)
        assert has == (opt[0] <= red.target_envy), k


def test_halfsep_equivalence_on_prism_and_double_diamond():
    for g in (PRISM, DOUBLE_DIAMOND):
        for k in (0, 2, 3):
            red = gen_halfsep_3regular(g, k)
            opt = brute_optimum(red.instance)
            has = half_separator_exists(g.n_vertices, set(g.edges), k)
            assert has == (opt[0] <= red.target_envy), (g.n_vertices, k)


def test_halfsep_witness_k4_has_no_valid_triple():
    red = gen_halfsep_3regular(K4, 2)
    for sep in combinations(range(4), 2):
        rest = [v for v in range(4) if v not in sep]
        with pytest.raises(BadPartition):
            witness_from_separator(red, sep, [rest[0]], [rest[1]])


def test_halfsep_prism_is_3_connected_no_size2_triple():
    # The triangular prism has no exact-size triple at k = 2: removing any
    # two vertices leaves it connected, so every candidate is rejected and
    # witness soundness holds vacuously.
    red = gen_halfsep_3regular(PRISM, 2)
    t = red.provenance["params"]["t"]
    for sep in combinations(range(6), red.target_envy):
        rest = [v for v in range(6) if v not in sep]
        for x in combinations(rest, t):
            y = [v for v in rest if v not in x]
            with pytest.raises(BadPartition):
                witness_from_separator(red, sep, x, y)


def test_halfsep_witness_on_double_diamond():
    red = gen_halfsep_3regular(DOUBLE_DIAMOND, 2)
    w = witness_from_separator(red, [0, 5], [1, 2, 3], [4, 6, 7])
    rep = evaluate(red.instance, w)
    assert rep.n_envious <= red.target_envy


# -- vertex-cover clique reductions (bipartite and split) ---------------------

def test_vc_bip_k3_counts():
    red = gen_clique_vc_bipartite(K3, 3)
    assert red.instance.n_agents == 9
    assert red.instance.n_houses == 9
    assert red.target_envy == 3


def test_vc_bip_house_preferred_by_at_most_four():
    red = gen_clique_vc_bipartite(K4, 2)
    assert max(preferrer_counts(red.instance)) <= 4
    for h in red.provenance["dummy_houses"]:
        assert preferrer_counts(red.instance)[h] == 0


def test_vc_bip_complete_bipartite_shape():
    red = gen_clique_vc_bipartite(K3, 2)
    vertex_agents = [a for ids in red.provenance["vertex_agents"].values() for a in ids]
    edge_agents = [a for ids in red.provenance["edge_agents"].values() for a in ids]
    assert_complete_bipartite(red.instance, vertex_agents, edge_agents)


def test_vc_bip_padding_adds_isolated_vertices():
    red = gen_clique_vc_bipartite(K3, 2, t_pad=4)
    assert red.provenance["params"]["n_vertices"] == 7
    assert red.instance.n_agents == 7 + 2 * 3


def test_vc_bip_min_envy_equals_target_on_k3():
    red = gen_clique_vc_bipartite(K3, 3)
    assert brute_optimum(red.instance)[0] == 3


def test_vc_bip_witness():
    for k in (1, 2, 3):
        red = gen_clique_vc_bipartite(K3, k)
        w = witness_from_clique_vc(red, list(range(k)))
        rep = evaluate(red.instance, w)
        assert rep.n_envious <= red.target_envy
        if k == 1:
            assert rep.n_envious == 0
        else:
            envious_agents = {a for a, f in enumerate(rep.envious) if f}
            vertex_agents = {
                ids[0] for v, ids in red.provenance["vertex_agents"].items()
                if int(v) < k
            }
            assert envious_agents <= vertex_agents


def test_vc_split_k3_counts():
    red = gen_clique_vc_split(K3, 3, 1)
    assert red.instance.n_agents == 6
    assert red.instance.n_houses == 6
    assert red.target_envy == 3


def test_vc_split_house_preferred_by_at_most_three():
    red = gen_clique_vc_split(K4, 2, 2)
    assert max(preferrer_counts(red.instance)) <= 3


def test_vc_split_is_split_graph():
    red = gen_clique_vc_split(K3, 2, 2)
    n_v = red.provenance["params"]["n_vertices"]
    edges = set(red.instance.edges)
    clique = range(n_v)
    for u, v in combinations(clique, 2):
        assert (u, v) in edges
    independent = range(n_v, red.instance.n_agents)
    for u, v in combinations(independent, 2):
        assert (u, v) not in edges
    for u in clique:
        for v in independent:
            assert (u, v) in edges


def test_vc_split_min_envy_equals_target_on_k3():
    red = gen_clique_vc_split(K3, 3, 1)
    assert brute_optimum(red.instance)[0] == 3


def test_vc_split_witness():
    for k in (1, 2, 3):
        red = gen_clique_vc_split(K3, k, 1)
        w = witness_from_clique_vc(red, list(range(k)))
        assert evaluate(red.instance, w).n_envious <= red.target_envy


def test_vc_split_rejects_bad_parameters():
    with pytest.raises(BadT):
        gen_clique_vc_split(K3, 2, 0)
    with pytest.raises(BadK):
        gen_clique_vc_split(K3, 0, 1)
    with pytest.raises(GeneratorError):
        gen_clique_vc_split(SourceGraph(3, []), 1, 1)


def test_vc_witness_rejects_non_clique():
    red = gen_clique_vc_split(K3, 2, 1)
    with pytest.raises(NotAClique):
        witness_from_clique_vc(red, [0, 1, 2])


def test_equivalence_vc_families_small():
    # Cases kept small enough for the enumeration oracle; the acceptance
    # suite sweeps the exhaustive family with an explicit size cap.
    k2 = SourceGraph(2, [(0, 1)])
    p3 = SourceGraph(3, [(0, 1), (1, 2)])
    cases = [
        (k2, gen_clique_vc_bipartite, {"k": 1}),
        (k2, gen_clique_vc_bipartite, {"k": 2}),
        (p3, gen_clique_vc_bipartite, {"k": 2}),
        (p3, gen_clique_vc_bipartite, {"k": 3}),
        (K3, gen_clique_vc_bipartite, {"k": 3}),
        (k2, gen_clique_vc_split, {"k": 1, "t": 1}),
        (k2, gen_clique_vc_split, {"k": 2, "t": 1}),
        (p3, gen_clique_vc_split, {"k": 1, "t": 1}),
        (p3, gen_clique_vc_split, {"k": 2, "t": 1}),
        (p3, gen_clique_vc_split, {"k": 3, "t": 1}),
        (K3, gen_clique_vc_split, {"k": 2, "t": 1}),
        (p3, gen_clique_vc_split, {"k": 2, "t": 2}),
    ]
    for g, gen, params in cases:
        red = gen(g, **params)
        has = clique_exists(g.n_vertices, set(g.edges), params["k"])
        opt = brute_optimum(red.instance)
        reachable = opt is not None and opt[0] <= red.target_envy
        assert has == reachable, (g, params)


def test_reduced_instance_rejects_negative_target():
    from haan.errors import InvalidInstance
    from haan.model import Instance
    with pytest.raises(InvalidInstance):
        ReducedInstance(Instance(0, 0, [], []), -1, {})
