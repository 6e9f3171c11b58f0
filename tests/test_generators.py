import hashlib
import json

import pytest

import vattol as vt
from vattol import BadParameter
from vattol.corpus import _RANDOM_SHAPES, exhaustive_members
from vattol.generators import FamilySpec, parse_family_spec


def test_every_public_name_resolves():
    assert [name for name in vt.__all__ if not hasattr(vt, name)] == []


def test_cycle():
    k3 = vt.cycle(3)
    assert k3.m == 3 and vt.regularity(k3) == 2
    c6 = vt.cycle(6)
    assert c6.m == 6 and vt.regularity(c6) == 2 and vt.is_connected(c6)
    with pytest.raises(BadParameter):
        vt.cycle(2)


def test_complete():
    assert vt.complete(2).m == 1
    k4 = vt.complete(4)
    assert k4.m == 6 and vt.regularity(k4) == 3
    with pytest.raises(BadParameter):
        vt.complete(1)


def test_star():
    g = vt.star(5)
    assert g.n == 6 and g.m == 5 and g.deg[0] == 5
    assert vt.regularity(g) is None
    g2 = vt.star(2)
    assert g2.n == 3 and g2.m == 2  # a path on three vertices
    with pytest.raises(BadParameter):
        vt.star(1)


def test_path():
    assert vt.path(2).m == 1
    p = vt.path(5)
    assert p.m == 4 and p.deg[0] == 1 and p.deg[2] == 2
    with pytest.raises(BadParameter):
        vt.path(1)


def test_hypercube():
    assert vt.hypercube(1).m == 1
    q2 = vt.hypercube(2)
    assert q2.n == 4 and q2.m == 4 and vt.regularity(q2) == 2
    q3 = vt.hypercube(3)
    assert q3.n == 8 and q3.m == 12 and vt.regularity(q3) == 3
    for bad in (0, 7):
        with pytest.raises(BadParameter):
            vt.hypercube(bad)


def test_complete_bipartite():
    assert vt.complete_bipartite(1).m == 1
    k22 = vt.complete_bipartite(2)
    assert k22.n == 4 and k22.m == 4 and vt.regularity(k22) == 2
    k33 = vt.complete_bipartite(3)
    assert k33.n == 6 and k33.m == 9 and vt.regularity(k33) == 3
    with pytest.raises(BadParameter):
        vt.complete_bipartite(0)


def test_circulant():
    assert vt.circulant(6, [1]) == vt.cycle(6)
    g = vt.circulant(6, [1, 3])
    assert vt.regularity(g) == 3  # the half offset contributes one edge
    assert vt.circulant(5, [1, 2]) == vt.complete(5)
    with pytest.raises(BadParameter):
        vt.circulant(6, [1, 1])
    with pytest.raises(BadParameter):
        vt.circulant(6, [4])
    with pytest.raises(BadParameter):
        vt.circulant(2, [1])


def test_petersen():
    g = vt.petersen()
    assert g.n == 10 and g.m == 15
    assert vt.regularity(g) == 3
    assert vt.is_connected(g)


class TestRandomRegular:
    def test_unique_cubic_on_four(self):
        for seed in (0, 1, 99):
            assert vt.random_regular(4, 3, seed) == vt.complete(4)

    def test_deterministic(self):
        a = vt.random_regular(10, 3, seed=42)
        b = vt.random_regular(10, 3, seed=42)
        assert a == b
        assert list(a.edges()) == list(b.edges())

    def test_seed_space_varied(self):
        # nearby seeds may collide through the retry chain (seed+1 on a
        # rejected pairing), but distant seeds should explore the space
        graphs = {
            tuple(vt.random_regular(16, 3, seed=s).edges())
            for s in (1, 1000, 50000)
        }
        assert len(graphs) > 1

    def test_simple_and_regular(self):
        for seed in range(5):
            g = vt.random_regular(12, 4, seed)
            assert vt.regularity(g) == 4

    def test_parity_rejected(self):
        with pytest.raises(BadParameter):
            vt.random_regular(5, 3, 0)
        with pytest.raises(BadParameter):
            vt.random_regular(4, 4, 0)

    def test_connected_variant_records_seed(self):
        g, seed = vt.connected_random_regular(12, 3, 5)
        assert vt.is_connected(g)
        assert vt.random_regular(12, 3, seed) == g


class TestEnumerateSmallRegular:
    @pytest.mark.parametrize(
        "n,d,count",
        [(2, 1, 1), (4, 2, 3), (4, 3, 1), (5, 2, 12), (6, 2, 60), (6, 3, 70), (6, 4, 15)],
    )
    def test_counts(self, n, d, count):
        graphs = list(vt.enumerate_small_regular(n, d))
        assert len(graphs) == count
        for g in graphs:
            assert vt.regularity(g) == d
            assert vt.is_connected(g)

    def test_unique_labeled_edge_sets(self):
        seen = {tuple(g.edges()) for g in vt.enumerate_small_regular(6, 3)}
        assert len(seen) == 70

    def test_k4_unique(self):
        (g,) = vt.enumerate_small_regular(4, 3)
        assert g == vt.complete(4)

    def test_ascending_encoding_order(self):
        n = 6
        edge_index = {
            (u, v): i
            for i, (u, v) in enumerate(
                (u, v) for u in range(n) for v in range(u + 1, n)
            )
        }
        codes = [
            sum(1 << edge_index[e] for e in g.edges())
            for g in vt.enumerate_small_regular(n, 2)
        ]
        assert codes == sorted(codes)

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            list(vt.enumerate_small_regular(9, 2))
        with pytest.raises(BadParameter):
            list(vt.enumerate_small_regular(5, 3))

    def test_exhaustive_members(self):
        items = list(exhaustive_members(6, 2))
        assert [i for i, _ in items] == [f"exhaustive:6,2,i={k}" for k in range(60)]
        assert [g for _, g in items] == list(vt.enumerate_small_regular(6, 2))
        with pytest.raises(BadParameter):
            exhaustive_members(9, 2)  # at the call, before any graph


class TestFamilySpec:
    @pytest.mark.parametrize(
        "text",
        [
            "cycle:6",
            "complete:4",
            "star:5",
            "path:7",
            "hypercube:3",
            "complete_bipartite:3",
            "circulant:8,1+4",
            "random_regular:20,3,seed=42",
            "petersen",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        assert str(spec) == text
        g = spec.build()
        assert g.n >= 2

    def test_build_matches_direct(self):
        assert parse_family_spec("cycle:6").build() == vt.cycle(6)
        assert parse_family_spec("circulant:8,1+4").build() == vt.circulant(8, [1, 4])
        assert (
            parse_family_spec("random_regular:10,3,seed=42").build()
            == vt.random_regular(10, 3, 42)
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "cycle",
            "cycle:",
            "cycle:x",
            "nosuch:3",
            "petersen:1",
            "random_regular:10,3",
            "random_regular:10,3,42",
            "circulant:8",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(BadParameter):
            parse_family_spec(bad)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("cycle", ()),
            ("cycle", (3, 4)),
            ("circulant", ()),
            ("random_regular", (10,)),
            ("petersen", (1,)),
        ],
    )
    def test_wrong_parameter_count(self, family, params):
        with pytest.raises(BadParameter):
            FamilySpec(family, params).build()
        with pytest.raises(BadParameter):
            str(FamilySpec(family, params))

    def test_usage_message_kept(self):
        with pytest.raises(BadParameter, match="circulant spec needs 'n,o1"):
            parse_family_spec("circulant:8")

    def test_random_spec_needs_seed(self):
        with pytest.raises(BadParameter):
            FamilySpec("random_regular", (10, 3)).build()

    def test_outcomes_pinned(self):
        # The str and built (n, m), or the error, of a grid of spec
        # strings and FamilySpec tuples over the nine families and an
        # unknown one; pinned before the spec grammar became one rule.
        def outcome(fn):
            try:
                return fn()
            except Exception as exc:
                return [type(exc).__name__, str(exc)]

        def shape(g):
            return [g.n, g.m]

        families = [
            "cycle", "complete", "star", "path", "hypercube",
            "complete_bipartite", "circulant", "random_regular", "petersen",
            "nosuch",
        ]
        suffixes = [
            "", ":", ":3", ":x", ":0", ":3,4", ":8,1+4", ":8,1+1", ":8,1",
            ":8", ":10,3", ":10,3,seed=42", ":10,3,seed=x", ":10,3,42",
            ":1+2", ",3", ":3,",
        ]
        params = [(), (3,), (0,), (8,), (8, 1), (8, 1, 4), (10, 3), (1, 2, 3)]
        grid = []
        for family in families:
            for suffix in suffixes:
                text = family + suffix
                grid.append([
                    text,
                    outcome(lambda: str(parse_family_spec(text))),
                    outcome(lambda: shape(parse_family_spec(text).build())),
                ])
            for p in params:
                for seed in (None, 42):
                    spec = FamilySpec(family, p, seed)
                    grid.append([
                        family, p, seed,
                        outcome(lambda: str(spec)),
                        outcome(lambda: shape(spec.build())),
                    ])
        assert len(grid) == 330
        digest = hashlib.sha256(json.dumps(grid).encode()).hexdigest()
        assert digest == "1dad673660ab7ab7c4867bc2c685cb6f992c6b3f86855f1b91c56e07b7ed0a54"


class TestRandomRegularPinned:
    """Seed -> graph mapping, pinned from before the shuffle's early abort."""

    def test_readme_example(self):
        assert sorted(vt.random_regular(18, 3, 118827).edges()) == [
            (0, 2), (0, 11), (0, 17), (1, 3), (1, 5), (1, 7), (2, 7), (2, 8),
            (3, 12), (3, 13), (4, 10), (4, 14), (4, 16), (5, 14), (5, 15),
            (6, 8), (6, 9), (6, 17), (7, 11), (8, 16), (9, 15), (9, 16),
            (10, 12), (10, 14), (11, 17), (12, 13), (13, 15),
        ]

    def test_corpus_shapes_and_small_seeds(self):
        # One connected sample per shape of the theorem corpus's random
        # members, at the seeds it uses, then random_regular(12, 4, 0..4).
        pinned = []
        for i, (n, d) in enumerate(_RANDOM_SHAPES):
            g, seed = vt.connected_random_regular(n, d, 42 + 7919 * i)
            pinned.append([seed, sorted(g.edges())])
        pinned += [[s, sorted(vt.random_regular(12, 4, s).edges())] for s in range(5)]
        digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
        assert digest == "758f4e1f0fcfe13f5ecc6317cc130d3b0f19a2e0e44edbce1a28d676947c02f5"
