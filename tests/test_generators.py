import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vattol as vt
from vattol import BadParameter, RetryLimitExceeded, generators
from vattol.corpus import _RANDOM_SHAPES, exhaustive_members, exhaustive_regular
from vattol.generators import FamilySpec, _splitmix64, parse_family_spec

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z):
    """splitmix64's output function on one state (Steele, Lea & Flood 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def ref_pairing(n, d, seed, word=mix):
    """One attempt, drawn word by word: a full Fisher-Yates shuffle of the
    stubs with rejection sampling, then the consecutive pairs; sorted
    edges, or None when the pairing is not simple."""
    state = seed

    def below(bound):
        nonlocal state
        while True:
            state = (state + GAMMA) & M64
            r = word(state)
            if r < (1 << 64) - (1 << 64) % bound:
                return r % bound

    stubs = [v for v in range(n) for _ in range(d)]
    for i in range(len(stubs) - 1, 0, -1):
        j = below(i + 1)
        stubs[i], stubs[j] = stubs[j], stubs[i]
    pairs = [(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])]
    if any(u == v for u, v in pairs) or len(set(pairs)) < len(pairs):
        return None
    return sorted(pairs)


def ref_random_regular(n, d, seed, word=mix):
    """(sorted edges, attempt seed) of the first simple attempt."""
    for k in range(10_000):
        edges = ref_pairing(n, d, (seed + k) & M64, word)
        if edges is not None:
            return edges, (seed + k) & M64
    raise RetryLimitExceeded("reference")


def ref_connected(n, d, seed, word=mix):
    """(sorted edges, seed used): retry random_regular at seed + 1, .."""
    for k in range(10_000):
        edges, _ = ref_random_regular(n, d, (seed + k) & M64, word)
        if vt.is_connected(vt.build_graph(n, edges)):
            return edges, (seed + k) & M64
    raise RetryLimitExceeded("reference")


wrapping_seeds = st.integers(0, M64) | st.integers(M64 - 2**10, M64)


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

    def test_retry_limit(self):
        # K_8 as a pairing of 56 stubs: no simple pairing in 10000 attempts
        with pytest.raises(RetryLimitExceeded) as err:
            vt.random_regular(8, 7, 0)
        assert str(err.value) == (
            "no simple 7-regular pairing on 8 vertices after 10000 attempts"
        )


@pytest.fixture(scope="module")
def exhaustive_8():
    return list(exhaustive_regular(8))


class TestEnumerateSmallRegular:
    @pytest.mark.parametrize(
        "n,d,count",
        [
            (2, 1, 1), (4, 2, 3), (4, 3, 1), (5, 2, 12), (6, 2, 60), (6, 3, 70),
            (6, 4, 15), (7, 2, 360), (7, 4, 465), (8, 2, 2520), (8, 3, 19320),
            (8, 4, 19355), (8, 5, 3507), (8, 6, 105), (8, 7, 1),
        ],
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

    def test_whole_corpus_pinned(self, exhaustive_8):
        # ids and edge lists of every exhaustive member up to n = 8
        dump = json.dumps([[i, [list(e) for e in g.edges()]] for i, g in exhaustive_8])
        digest = hashlib.sha256(dump.encode()).hexdigest()
        assert digest == "168a1fb28c1ff9890336d81dba0309dffa15e3c300bf8e8013b4e4be076359e8"

    def test_members_equal_validated_graphs(self, exhaustive_8):
        for _, g in exhaustive_8:
            ref = vt.build_graph(g.n, list(g.edges()))
            assert g == ref and g.adj_masks == ref.adj_masks
            assert vt.is_connected(g) and vt.is_connected(ref)

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

    def test_edge_limit(self):
        over = generators.SPEC_EDGE_LIMIT + 1
        with pytest.raises(BadParameter, match=f"cycle:{over}: up to {over} edges"):
            FamilySpec("cycle", (over,)).build()
        with pytest.raises(BadParameter, match="above the spec limit 100000"):
            parse_family_spec("circulant:50001,1+2").build()
        assert vt.cycle(over).m == over  # the constructors have no bound

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

    def test_seeds_that_wrap(self):
        # Attempt seeds wrap at 2^64; (10, 5) retries past it, and the
        # seed used is still the input seed, its first simple attempt
        # being connected.
        pinned = []
        for n, d, seed in ((12, 3, 2**64 - 2), (10, 5, 2**64 - 1), (8, 3, 2**64 - 3)):
            g, used = vt.connected_random_regular(n, d, seed)
            pinned.append([n, d, seed, used, [list(e) for e in g.edges()]])
        digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
        assert digest == "664262c55d0d0ff768430c4c9148a1b349e5abc154b6552b39bb7e90e592be5a"


class TestBlockDraws:
    """The array draws against the word-by-word reference above."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(wrapping_seeds, min_size=1, max_size=4), count=st.integers(0, 40))
    def test_words_match_the_scalar_reference(self, seeds, count):
        ref = [[mix((s + k * GAMMA) & M64) for k in range(1, count + 1)] for s in seeds]
        assert _splitmix64(seeds[0], count).tolist() == ref[0]
        assert _splitmix64(np.array(seeds, dtype=np.uint64), count).tolist() == ref

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from([(4, 3), (6, 3), (8, 3), (8, 4), (10, 3), (10, 5), (12, 4)]),
        seed=wrapping_seeds,
    )
    def test_graphs_match_the_scalar_reference(self, shape, seed):
        n, d = shape
        edges, _ = ref_random_regular(n, d, seed)
        assert list(vt.random_regular(n, d, seed).edges()) == edges
        g, used = vt.connected_random_regular(n, d, seed)
        assert [list(g.edges()), used] == list(ref_connected(n, d, seed))

    def test_rejected_words_are_redrawn(self, monkeypatch):
        # No natural seed draws a word that rejection sampling discards
        # (the chance is at most bound / 2^64 a draw), so inject them at
        # chosen stream states: the largest word, which every bound but a
        # power of two rejects, and as each attempt's first draw (bound
        # 30) the largest word that bound keeps.
        n, d, seed = 10, 3, 7
        injected = {
            (seed + a + k * GAMMA) & M64: M64
            for a in range(12)
            for k in (2, 3, 5, 8, 13, 14, 15, 21, 29)
        }
        injected.update({(seed + a + GAMMA) & M64: M64 - (1 << 64) % 30 for a in range(12)})
        real = generators._splitmix64

        def splitmix64_injected(seeds, count):
            words = real(seeds, count)
            steps = np.uint64(GAMMA) * np.arange(1, count + 1, dtype=np.uint64)
            states = np.asarray(seeds, dtype=np.uint64)[..., None] + steps
            for state, value in injected.items():
                words[states == state] = value
            return words

        monkeypatch.setattr(generators, "_splitmix64", splitmix64_injected)
        word = lambda z: injected.get(z, mix(z))
        edges, _ = ref_random_regular(n, d, seed, word)
        assert edges != ref_random_regular(n, d, seed)[0]
        assert list(vt.random_regular(n, d, seed).edges()) == edges
        g, used = vt.connected_random_regular(n, d, seed)
        assert [list(g.edges()), used] == list(ref_connected(n, d, seed, word))
