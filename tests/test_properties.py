"""Property-based invariants over randomly generated small graphs."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import vattol as vt
from fraction_facts import mediant_between, series_lower_bound
from naive_oracle import naive_conductance_minimizers, naive_vat, naive_weighted_vat

F = Fraction


@st.composite
def graphs(draw, min_n=2, max_n=8, connected=False):
    n = draw(st.integers(min_n, max_n))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(all_edges) - 1))
    edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
    g = vt.build_graph(n, edges)
    if connected and not vt.is_connected(g):
        # wire consecutive vertices together to force connectivity
        have = set(edges)
        for v in range(n - 1):
            if (v, v + 1) not in have:
                edges.append((v, v + 1))
                have.add((v, v + 1))
        g = vt.build_graph(n, edges)
    return g


@st.composite
def masks_for(draw, g, nonempty=True, proper=True):
    lo = 1 if nonempty else 0
    hi = vt.full_mask(g.n) - (1 if proper else 0)
    return draw(st.integers(lo, hi))


@given(graphs())
def test_cut_complement_symmetry(g):
    full = vt.full_mask(g.n)
    for s in (0, 1, full >> 1, full):
        assert vt.cut_size(g, s) == vt.cut_size(g, full & ~s)


@given(graphs(), st.data())
def test_volume_complement(g, data):
    s = data.draw(masks_for(g, nonempty=False, proper=False))
    full = vt.full_mask(g.n)
    assert vt.volume(g, s) + vt.volume(g, full & ~s) == 2 * g.m


@given(graphs(), st.data())
def test_components_partition_and_connectivity(g, data):
    removed = data.draw(masks_for(g, nonempty=False, proper=False))
    comps = vt.components(g, removed)
    union = 0
    for c in comps:
        assert c & removed == 0
        assert c & union == 0
        union |= c
    assert union == vt.full_mask(g.n) & ~removed
    if comps:  # the early-exit search picks the head of the sorted list
        assert vt.largest_component(g, removed) == comps[0]
    # each component is internally connected and closed off from the rest
    for c in comps:
        members = vt.vertices_from_mask(c)
        inside = vt.build_graph(
            len(members),
            [
                (members.index(u), members.index(v))
                for u, v in g.edges()
                if u in members and v in members
            ],
        )
        assert vt.is_connected(inside)
        for u in members:
            for v in g.adj[u]:
                assert (1 << v) & (union & ~c) == 0  # no edge to another component


@given(graphs())
def test_components_count_matches_connectivity(g):
    assert (len(vt.components(g)) == 1) == vt.is_connected(g)


@given(graphs(min_n=1), st.data())
def test_restrict_matches_the_mask_components(g, data):
    weights = data.draw(st.lists(st.integers(1, 9), min_size=g.n, max_size=g.n))
    g = vt.build_graph(g.n, g.edges(), costs=weights, values=weights[::-1])
    keep = vt.vertices_from_mask(vt.largest_component(g))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    costs, values = ([w[v] for v in keep] for w in (g.costs, g.values))
    assert vt.restrict_to_largest_component(g) == vt.build_graph(len(keep), edges, costs, values)


@given(graphs(min_n=2, max_n=7, connected=True))
def test_regular_volume_identity(g):
    d = vt.regularity(g)
    if d is not None:
        s = vt.mask_from_vertices(range(0, g.n, 2))
        assert vt.volume(g, s) == d * s.bit_count()


@given(graphs(min_n=2, max_n=7, connected=True), st.data())
def test_vat_is_minimum_over_sampled_sets(g, data):
    s = data.draw(masks_for(g))
    best = vt.vat_exact(g)
    assert best.value <= vt.set_vat(g, s)
    assert vt.set_vat(g, best.witness) == best.value


@given(graphs(min_n=2, max_n=7, connected=True))
def test_metric_ranges(g):
    tau = vt.vat_exact(g)
    phi = vt.conductance_exact(g)
    assert 0 < tau.value <= 1
    assert 0 < phi.value <= 1
    assert vt.set_conductance(g, phi.witness) == phi.value
    assert vt.largest_component(g, tau.witness) != 0


@given(graphs(min_n=2, max_n=9, connected=True))
@settings(deadline=None)
def test_exact_batch_matches_naive_oracle(g):
    (e,) = vt.exact_batch([g])
    phi, minimizers = naive_conductance_minimizers(g)
    assert (e.tau.value, e.tau.witness) == naive_vat(g)
    assert (e.phi.value, e.phi.witness) == (phi, minimizers[0])
    assert vt.conductance_minimizers(g) == minimizers


@given(st.integers(2, 9), st.integers(2, 40), st.data())
@settings(deadline=None)
def test_exact_batch_of_many_graphs_matches_naive_oracle(n, k, data):
    """One call on k graphs of one n: every row's offsets line up, also
    across the conductance engine's chunks of 16 rows at n = 9 and 32 at
    n = 8.  Each record holds reduced fractions, the integers of the
    single-graph engines, as the row table keys on them."""
    group = data.draw(st.lists(graphs(min_n=n, max_n=n, connected=True), min_size=k, max_size=k))
    for g, e in zip(group, vt.exact_batch(group), strict=True):
        phi, minimizers = naive_conductance_minimizers(g)
        assert (e.tau.value, e.tau.witness) == naive_vat(g)
        assert (e.phi.value, e.phi.witness) == (phi, minimizers[0])
        assert gcd(e.tau_num, e.tau_den) == gcd(e.phi_num, e.phi_den) == 1
        vat, cond = vt.vat_exact(g), vt.conductance_exact(g)
        assert e[:3] == (vat.value.numerator, vat.value.denominator, vat.witness)
        assert e[3:6] == (cond.value.numerator, cond.value.denominator, cond.witness)


@given(graphs(min_n=2, max_n=7, connected=True))
def test_reduction_chain_identity(g):
    base = vt.vat_exact(g)
    for r in (
        vt.alpha_beta_vat_exact(g, 1, 0),
        vt.weighted_vat_exact(g),
        vt.alpha_beta_weighted_vat_exact(g, 1, 0),
    ):
        assert r.value == base.value
        assert r.witness == base.witness


@given(graphs(min_n=2, max_n=7, connected=True), st.data())
@settings(deadline=None)
def test_weighted_forms_match_exact_oracle(g, data):
    tenths = st.lists(st.integers(1, 10), min_size=g.n, max_size=g.n)
    costs, values = data.draw(tenths), data.draw(tenths)
    alpha, beta = data.draw(st.sampled_from([(1, 0), (F(3, 2), F(1, 2)), (2, 1), (0.3, 0.1)]))
    w = vt.build_graph(
        g.n, list(g.edges()), [c / 10 for c in costs], [v / 10 for v in values]
    )
    for r, ref in (
        (vt.weighted_vat_exact(w), naive_weighted_vat(w)),
        (vt.alpha_beta_weighted_vat_exact(w, alpha, beta), naive_weighted_vat(w, alpha, beta)),
        (vt.alpha_beta_vat_exact(w, alpha, beta), naive_weighted_vat(g, alpha, beta)),
    ):
        assert (r.value, r.witness) == ref


@given(graphs(min_n=3, max_n=8, connected=True))
@settings(deadline=None)
def test_sweep_upper_bounds_exact(g):
    assert vt.sweep_conductance(g).value >= vt.conductance_exact(g).value


@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
def test_mediant_sandwich(a, x, b, y):
    if F(a, x) > F(b, y):
        a, x, b, y = b, y, a, x
    mid = mediant_between(a, x, b, y)
    if F(a, x) < F(b, y):
        assert F(a, x) < mid < F(b, y)
    else:
        assert mid == F(a, x)


@given(
    st.lists(
        st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
        min_size=1,
        max_size=20,
    ),
    st.fractions(),
)
def test_series_lower_bound_implication(pairs, c):
    ratios = [F(a, b) for a, b in pairs]
    if c <= min(ratios):
        assert series_lower_bound(pairs, c)


@given(st.integers(0, 2**63))
def test_random_regular_determinism(seed):
    assert vt.random_regular(8, 3, seed) == vt.random_regular(8, 3, seed)
