import logging
import math
import pickle
import warnings
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from naive_oracle import naive_log_Z, naive_probs, naive_restricted_log, naive_tv, random_model
from spinlab import exact
from spinlab.errors import BudgetExceededError, InvalidConfigurationError, InvalidModelError
from spinlab.exact import (
    ClassLayout,
    CollapsedSpace,
    ExactDistribution,
    decode_spins,
    dump_distribution_csv,
    partition_log,
    restricted_partition_log,
    restricted_partition_multi,
    sample_exact,
    sample_exact_indices,
    tv_collapsed,
    tv_exact,
)
from spinlab.model import Configuration, SpinSystem


def make(q, n, edges, field=()):
    return SpinSystem(q=q, n=n, edges=tuple(edges), field=tuple(field))


def cubic_pair(seed, n=18):
    """A seeded random cubic Ising model with fields and a perturbed copy."""
    rng = np.random.default_rng(seed)
    graph = nx.random_regular_graph(3, n, seed=seed)
    edges = tuple((u, v, float(rng.normal(0.0, 0.5))) for u, v in sorted(graph.edges()))
    field = tuple((v, int(rng.integers(2)), float(rng.normal(0.0, 0.3))) for v in range(n))
    b_edges = tuple((u, v, b + float(rng.normal(0.0, 0.1))) for u, v, b in edges)
    return make(2, n, edges, field), make(2, n, b_edges, field)


def eliminated(model):
    return exact._eliminate_log_Z(model, exact._min_fill_order(model)[0])


class TestPartitionLog:
    def test_edgeless(self):
        assert partition_log(make(3, 4, ())) == pytest.approx(4 * math.log(3))

    def test_triangle_q3(self):
        m = make(3, 3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        expected = math.log(3 * math.e**3 + 18 * math.e + 6)
        assert partition_log(m) == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q, n, edges, field = random_model(rng, n_max=7)
            m = make(q, n, edges, field)
            assert partition_log(m) == pytest.approx(
                naive_log_Z(q, n, edges, field), rel=1e-11
            )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            partition_log(make(2, 30, ()))

    def test_nan_budget_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            partition_log(make(2, 30, ()), float("nan"))


class TestElimination:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_enumeration_on_cubic_n18(self, seed):
        model, _ = cubic_pair(seed)
        assert eliminated(model) == pytest.approx(exact._enumerate_log_Z(model), rel=1e-12)

    def test_min_fill_order_is_deterministic(self):
        # star centred at 1: the leaves need no fill and go first by id; once
        # only 3 is left beside it, 1 has no fill either and wins on id
        model = make(2, 4, ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
        assert exact._min_fill_order(model) == ([0, 2, 1, 3], 1)
        # triangle 0-1-2 with pendant 3 on 2: 0, 1 and 3 need no fill, and
        # pendant 3 goes first on its smaller degree
        model = make(2, 4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        assert exact._min_fill_order(model) == ([3, 0, 1, 2], 2)

    def test_wide_model_takes_enumeration(self, monkeypatch, caplog):
        k13 = make(3, 13, [(u, v, 0.1) for u in range(13) for v in range(u + 1, 13)])
        monkeypatch.setattr(exact, "_enumerate_log_Z", lambda model: 123.0)
        with caplog.at_level(logging.DEBUG, logger="spinlab.exact"):
            assert partition_log(k13) == 123.0
        assert "engine=enumeration induced_width=12 largest_factor_cells=1594323" in caplog.text

    def test_cubic_model_takes_elimination(self, monkeypatch, caplog):
        model, _ = cubic_pair(1)

        def no_enumeration(_model):
            raise AssertionError("enumeration ran")

        monkeypatch.setattr(exact, "_enumerate_log_Z", no_enumeration)
        with caplog.at_level(logging.DEBUG, logger="spinlab.exact"):
            partition_log(model)
        assert "engine=elimination" in caplog.text

    def test_silent_by_default(self, capsys):
        partition_log(make(2, 3, ((0, 1, 1.0),)))
        assert capsys.readouterr() == ("", "")


class TestRestricted:
    def test_full_predicate_equals_partition(self):
        m = make(2, 5, ((0, 1, 0.5), (3, 4, -0.5)))
        assert restricted_partition_log(m, lambda s: True) == pytest.approx(
            partition_log(m)
        )

    def test_empty_predicate(self):
        m = make(2, 3, ())
        assert restricted_partition_log(m, lambda s: False) == -math.inf

    def test_multi_pass_matches_single(self):
        m = make(2, 6, ((0, 1, 0.7), (1, 2, 0.7), (4, 5, -0.3)))
        preds = [lambda s: s[:, 0] == 0, lambda s: s[:, 0] == s[:, 5]]
        multi = restricted_partition_multi(m, preds)
        singles = [
            restricted_partition_log(m, p) for p in preds
        ]
        assert multi == pytest.approx(singles)


class TestTvExact:
    def test_self_distance_zero(self):
        m = make(2, 4, ((0, 1, 1.0),))
        assert tv_exact(m, m) == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive(self):
        a = make(2, 4, ((0, 1, 1.0), (2, 3, 0.5)))
        b = make(2, 4, ((0, 1, -1.0),), field=((0, 0, 0.7),))
        expected = naive_tv(2, 4, a.edges, a.field, b.edges, b.field)
        assert tv_exact(a, b) == pytest.approx(expected, rel=1e-11)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q, n, edges, field = random_model(rng, n_max=5)
            a = make(q, n, edges, field)
            b = make(q, n, (), ())
            t = tv_exact(a, b)
            assert 0.0 <= t <= 1.0
            assert tv_exact(b, a) == pytest.approx(t)

    def test_self_zero_and_symmetric_on_cubic_n18(self):
        a, b = cubic_pair(5)
        assert tv_exact(a, a) == 0.0
        assert tv_exact(b, a) == pytest.approx(tv_exact(a, b), rel=0, abs=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidModelError):
            tv_exact(make(2, 3, ()), make(2, 4, ()))


class TestExactDistribution:
    def test_probs_sum_to_one(self):
        dist = ExactDistribution.from_model(make(3, 3, ((0, 1, 0.8),)))
        assert np.exp(dist.log_probs).sum() == pytest.approx(1.0, rel=1e-12)

    def test_sampler_matches_distribution(self):
        m = make(2, 4, ((0, 1, 1.2), (2, 3, -0.8)), field=((0, 0, 0.4),))
        dist = ExactDistribution.from_model(m)
        rng = np.random.default_rng(7)
        idx = sample_exact_indices(dist, rng, 200_000)
        emp = np.bincount(idx, minlength=16) / len(idx)
        assert 0.5 * np.abs(emp - np.exp(dist.log_probs)).sum() < 0.01

    def test_single_draw_is_configuration(self):
        dist = ExactDistribution.from_model(make(2, 3, ()))
        cfg = sample_exact(dist, np.random.default_rng(0))
        assert isinstance(cfg, Configuration)
        assert len(cfg.spins) == 3

    def test_batch_draws_match_index_draws(self):
        m = make(3, 4, ((0, 1, 0.9), (1, 2, -0.5), (2, 3, 0.3)), field=((1, 2, 0.6),))
        dist = ExactDistribution.from_model(m)
        cfgs = sample_exact(dist, np.random.default_rng(11), size=2000)
        idx = sample_exact_indices(dist, np.random.default_rng(11), 2000)
        assert cfgs == [dist.configuration(int(i)) for i in idx]
        assert all(type(s) is int for s in cfgs[0].spins)

    def test_csv_dump(self, tmp_path):
        dist = ExactDistribution.from_model(make(2, 2, ((0, 1, 1.0),)))
        path = tmp_path / "dist.csv"
        dump_distribution_csv(dist, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "state_index,log_probability"
        assert len(lines) == 5


class TestCollapsedSpace:
    def test_log_Z_matches_expansion(self):
        # two classes: 3 states of weight e^1, 5 states of weight e^-2
        space = CollapsedSpace(
            layout=ClassLayout(("ab",), 2),
            log_count=np.log([3.0, 5.0]),
            log_weight=np.array([1.0, -2.0]),
        )
        assert space.log_Z == pytest.approx(math.log(3 * math.e + 5 * math.e**-2))

    def test_tv_collapsed_requires_same_classes(self):
        a = CollapsedSpace(ClassLayout(("x",), 1), np.zeros(1), np.zeros(1))
        b = CollapsedSpace(ClassLayout(("y",), 1), np.zeros(1), np.zeros(1))
        with pytest.raises(InvalidModelError):
            tv_collapsed(a, b)

    def test_tv_collapsed_identical_is_zero(self):
        a = CollapsedSpace(ClassLayout(("xy",), 2), np.zeros(2), np.array([0.3, -0.1]))
        assert tv_collapsed(a, a) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partition_log_oracle_property(seed):
    rng = np.random.default_rng(seed)
    q, n, edges, field = random_model(rng, n_max=5)
    m = make(q, n, edges, field)
    assert partition_log(m) == pytest.approx(naive_log_Z(q, n, edges, field), rel=1e-10)


@st.composite
def wide_q_models(draw):
    """Models with q up to 256 (spins beyond the int8 range) and q^n <= 2^20."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(2, min(256, int(2 ** (20 / n)))))
    weights = st.floats(-2.0, 2.0)
    edges = tuple(
        (u, v, draw(weights)) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    )
    keys = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, q - 1)), max_size=4))
    field = tuple((v, s, draw(weights)) for v, s in sorted(keys))
    return q, n, edges, field


@settings(max_examples=10, deadline=None)
@given(wide_q_models())
@example((130, 2, ((0, 1, 0.7),), ((0, 129, 1.3), (1, 128, -0.4))))
def test_partition_log_wide_q_oracle_property(args):
    q, n, edges, field = args
    m = make(q, n, edges, field)
    assert partition_log(m) == pytest.approx(naive_log_Z(q, n, edges, field), rel=1e-10)


@st.composite
def elimination_models(draw):
    """q in [2, 5], n <= 8 with q^n <= 3^8 so the naive sum stays small."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(0, {2: 8, 3: 8, 4: 6, 5: 5}[q]))
    weights = st.floats(-2.0, 2.0)
    edges = tuple(
        (u, v, draw(weights)) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    )
    keys = draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, q - 1)),
                        max_size=2 * n))
    field = tuple((v, s, draw(weights)) for v, s in sorted(keys))
    return q, n, edges, field


@settings(max_examples=60, deadline=None)
@given(elimination_models())
@example((3, 0, (), ()))
@example((5, 1, (), ((0, 4, 1.5),)))
@example((4, 5, (), ((2, 1, -0.3),)))
@example((2, 7, ((0, 1, 1.0), (1, 2, -0.5), (0, 2, 0.3), (4, 5, 2.0), (5, 6, -1.0)), ()))
def test_engines_oracle_property(args):
    q, n, edges, field = args
    m = make(q, n, edges, field)
    expected = naive_log_Z(q, n, edges, field)
    assert eliminated(m) == pytest.approx(expected, rel=1e-12)
    assert exact._enumerate_log_Z(m) == pytest.approx(expected, rel=1e-12)


def test_decode_spins_columns():
    m = make(3, 4, ())
    idx = np.arange(3**4)
    spins = decode_spins(m, idx)
    expected = [[(i // 3**v) % 3 for v in range(4)] for i in range(3**4)]
    assert spins.shape == (3**4, 4) and spins.tolist() == expected
    assert all(spins[:, v].flags.c_contiguous for v in range(4))


# -- block tensors --------------------------------------------------------------


def decode_path_blocks(model):
    """The enumeration before block tensors, kept as an oracle: decode each
    2^20-index block with ``decode_spins`` and weigh its rows with
    ``block_log_weights``.  Yields (spins, log_weights)."""
    total = model.q**model.n
    for start in range(0, total, 1 << 20):
        spins = decode_spins(model, np.arange(start, min(start + (1 << 20), total)))
        yield spins, exact.block_log_weights(model, spins)


def decode_path_tv(a, b):
    log_za, log_zb = partition_log(a), partition_log(b)
    acc = 0.0
    for (spins, lwa), (_, lwb) in zip(decode_path_blocks(a), decode_path_blocks(b)):
        acc += float(np.sum(np.abs(np.exp(lwa - log_za) - np.exp(lwb - log_zb))))
    return 0.5 * acc


def decode_path_split(model):
    """log Z restricted to each spin of vertex 0, one part per block."""
    parts = [[] for _ in range(model.q)]
    for spins, lw in decode_path_blocks(model):
        for c in range(model.q):
            mask = spins[:, 0] == c
            if mask.any():
                parts[c].append(float(logsumexp(lw[mask])))
    return [float(logsumexp(p)) if p else -math.inf for p in parts]


class TestBlockTensors:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_decode_path_on_cubic_n18(self, seed):
        a, b = cubic_pair(seed)
        (spins, lw), = decode_path_blocks(a)
        (tensor_lw, tensor_spins), = exact.iter_blocks(a, with_spins=True)
        assert np.array_equal(tensor_lw, lw)
        assert np.array_equal(tensor_spins, spins)
        assert tv_exact(a, b) == decode_path_tv(a, b)
        split = restricted_partition_multi(a, [lambda s, c=c: s[:, 0] == c for c in range(2)])
        assert split == decode_path_split(a)
        assert np.array_equal(ExactDistribution.from_model(a).log_probs,
                              lw - float(logsumexp(lw)))

    @pytest.mark.parametrize("q, n", [(3, 12), (4, 9), (7, 6), (300, 2)])
    def test_weights_bit_identical_on_single_blocks(self, q, n):
        rng = np.random.default_rng(q * n)
        edges = [(u, v, float(rng.normal())) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        field = [(v, int(rng.integers(q)), float(rng.normal())) for v in range(n)]
        m = make(q, n, edges, field)
        (_, lw), = decode_path_blocks(m)
        (tensor_lw, _), = exact.iter_blocks(m)
        assert np.array_equal(tensor_lw, lw)

    @pytest.mark.parametrize("q, n", [(2, 1), (2, 18), (3, 7), (5, 4), (130, 2), (300, 2)])
    def test_spin_matrix_equals_decode_spins(self, q, n):
        m = make(q, n, ())
        (_, spins), = exact.iter_blocks(m, with_spins=True)
        expected = decode_spins(m, np.arange(q**n))
        assert spins.dtype == expected.dtype
        assert np.array_equal(spins, expected)
        assert all(spins[:, v].flags.c_contiguous for v in range(n))

    def test_multi_block_spins_and_order(self, monkeypatch):
        # 3^5 states in 27 blocks of 3^2: the top three vertices index blocks
        monkeypatch.setattr(exact, "_BLOCK_BITS", 4)
        m = make(3, 5, ((0, 1, 0.4), (1, 3, -0.7), (2, 4, 1.1), (3, 4, 0.2)),
                 field=((0, 2, 0.5), (3, 1, -0.3), (4, 0, 0.8)))
        blocks = list(exact.iter_blocks(m, with_spins=True))
        assert len(blocks) == 27 and all(len(lw) == 9 for lw, _ in blocks)
        spins = np.concatenate([s for _, s in blocks])
        assert np.array_equal(spins, decode_spins(m, np.arange(3**5)))
        lw = np.concatenate([w for w, _ in blocks])
        expected = exact.block_log_weights(m, spins)
        assert np.allclose(lw, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("q, n, edges, field", [
        # the 3^5 model of test_multi_block_spins_and_order
        (3, 5, ((0, 1, 0.4), (1, 3, -0.7), (2, 4, 1.1), (3, 4, 0.2)),
         ((0, 2, 0.5), (3, 1, -0.3), (4, 0, 0.8))),
        # 2^7 states in blocks of 2^4: edges inside the low four, across and
        # among the top three, a top vertex with neither field nor lower edge
        (2, 7, ((0, 1, 0.3), (1, 3, -1.2), (2, 3, 0.7), (0, 4, 0.9), (3, 4, -0.4),
                (2, 6, 1.3), (4, 6, -0.8)), ((1, 0, 0.25), (4, 1, -0.6), (6, 0, 0.35))),
    ])
    def test_multi_block_weights_bit_identical(self, monkeypatch, q, n, edges, field):
        monkeypatch.setattr(exact, "_BLOCK_BITS", 4)
        m = make(q, n, edges, field)
        blocks = list(exact.iter_blocks(m, with_spins=True))
        assert len(blocks) > 1
        for lw, spins in blocks:
            expected = exact.block_log_weights(m, spins)
            assert np.array_equal(lw.view(np.int64), expected.view(np.int64))

    def test_spin_values_beyond_one_block(self):
        # q > 2^20: one vertex per block, q states each
        q = (1 << 20) + 3
        m = make(q, 1, (), ((0, q - 1, 2.0),))
        assert exact._enumerate_log_Z(m) == pytest.approx(math.log(q - 1 + math.e**2), rel=1e-12)

    def test_state_table(self):
        m = make(2, 4, ((0, 1, 1.0), (2, 3, -0.5)), field=((1, 1, 0.3),))
        lw, spins = exact.state_table(m)
        (ref_spins, ref_lw), = decode_path_blocks(m)
        assert np.array_equal(lw, ref_lw) and np.array_equal(spins, ref_spins)


def _lse_cases(n):
    """Seeded 1-D inputs of length n: spread, near-tied and integer values,
    repeated maxima, -inf, +inf and nan entries, and all -inf."""
    rng = np.random.default_rng(n)
    a = rng.normal(0.0, 30.0, size=n)
    ties = a.copy()
    ties[rng.integers(n, size=3)] = a.max()
    holes = a.copy()
    holes[rng.random(n) < 0.3] = -np.inf
    cases = [a, 5.0 + 1e-12 * a, np.floor(a / 20.0), ties, holes, a * 1e306, a - 800.0,
             np.full(n, -np.inf)]
    for bad in (np.inf, np.nan):
        c = holes.copy()
        c[rng.integers(n)] = bad
        cases.append(c)
    return cases


class TestLogsumexp:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 255, 256, 257, 4099, 40176, 1 << 18])
    def test_bits_equal_scipy(self, n):
        for a in _lse_cases(n):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # quiet where scipy warns of overflow
                got = exact.logsumexp(a)
            with np.errstate(over="ignore"):
                want = logsumexp(a)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), a
            if n <= 257:
                assert np.float64(exact.logsumexp(a.tolist())).tobytes() == np.float64(want).tobytes()

    def test_empty_and_small_lists(self):
        assert exact.logsumexp([]) == -math.inf
        assert exact.logsumexp(np.zeros(0)) == -math.inf
        for a in ([0.5], [-3.0, 2.0], [1, 1, 1], [-math.inf, 0.0], [-math.inf] * 2):
            assert np.float64(exact.logsumexp(a)).tobytes() == np.float64(logsumexp(a)).tobytes()


@st.composite
def folded_models(draw):
    """q in [2, 5], n <= 8 with q^n <= 4^5 so the naive sums stay small."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(1, {2: 8, 3: 6, 4: 5, 5: 4}[q]))
    weights = st.floats(-2.0, 2.0)
    edges = tuple(
        (u, v, draw(weights)) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    )
    keys = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, q - 1)), max_size=2 * n))
    field = tuple((v, s, draw(weights)) for v, s in sorted(keys))
    return q, n, edges, field


@settings(max_examples=40, deadline=None)
@given(folded_models())
@example((3, 1, (), ((0, 2, 0.9),)))
@example((2, 1, (), ()))
@example((4, 5, (), ((2, 1, -0.3), (4, 3, 1.2))))
@example((2, 8, ((0, 1, 1.0), (1, 2, -0.5), (0, 7, 0.3), (4, 5, 2.0), (5, 6, -1.0)), ()))
@example((5, 4, ((0, 3, 1.5), (1, 2, -1.0)), ((3, 0, 0.4),)))
def test_folded_blocks_oracle_property(args):
    # blocks of at most 2^4 states, so the top vertices are folded
    q, n, edges, field = args
    a = make(q, n, edges, field)
    b = make(q, n, edges[1:], field[:1])

    def first_spin(c):
        return lambda spins: spins[:, 0] == c

    def top_pair(spins):
        return spins[:, 0] == spins[:, n - 1]

    with mock.patch.object(exact, "_BLOCK_BITS", 4):
        log_z = exact._enumerate_log_Z(a)
        split = restricted_partition_multi(a, [first_spin(c) for c in range(q)] + [top_pair])
        tv = tv_exact(a, b)
        log_probs = ExactDistribution.from_model(a).log_probs
    assert log_z == pytest.approx(naive_log_Z(q, n, edges, field), rel=1e-12)
    for c in range(q):
        expected = naive_restricted_log(q, n, edges, field, lambda s, c=c: s[0] == c)
        assert split[c] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    expected = naive_restricted_log(q, n, edges, field, lambda s: s[0] == s[n - 1])
    assert split[q] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert tv == pytest.approx(naive_tv(q, n, edges, field, b.edges, b.field), rel=1e-12, abs=1e-15)
    probs = naive_probs(q, n, edges, field)
    expected = [math.log(probs[s]) for s in sorted(probs, key=lambda s: s[::-1])]
    assert np.allclose(log_probs, expected, rtol=1e-12, atol=1e-12)


# -- min-fill order -----------------------------------------------------------------


def full_recompute_min_fill(model):
    """Min-fill order re-costing every remaining vertex at every step."""
    adj = [set() for _ in range(model.n)]
    for u, v, _ in model.edges:
        adj[u].add(v)
        adj[v].add(u)

    def cost(v):
        nbrs = sorted(adj[v])
        fill = sum(b not in adj[a] for i, a in enumerate(nbrs) for b in nbrs[i + 1:])
        return fill, len(nbrs), v

    remaining, order, width = set(range(model.n)), [], 0
    while remaining:
        v = min(remaining, key=cost)
        width = max(width, len(adj[v]))
        for a in adj[v]:
            adj[a] |= adj[v]
            adj[a] -= {a, v}
        remaining.remove(v)
        order.append(v)
    return order, width


def _min_fill_graphs():
    graphs = [nx.random_regular_graph(3, n, seed=s) for s, n in enumerate((8, 12, 20, 30, 40, 60))]
    graphs += [nx.random_regular_graph(3, 60, seed=s) for s in (11, 12)]
    graphs += [nx.gnp_random_graph(14, p, seed=s) for s, p in enumerate((0.5, 0.7, 0.9))]
    graphs += [nx.complete_graph(9), nx.grid_2d_graph(5, 6), nx.cycle_graph(15)]
    graphs += [nx.disjoint_union(nx.random_regular_graph(3, 10, seed=4), nx.complete_graph(5)),
               nx.disjoint_union(nx.path_graph(7), nx.cycle_graph(6))]
    graphs += [nx.empty_graph(10), nx.empty_graph(1), nx.gnm_random_graph(25, 40, seed=9)]
    return [nx.convert_node_labels_to_integers(g) for g in graphs]


@pytest.mark.parametrize("graph", _min_fill_graphs())
def test_min_fill_order_matches_full_recompute(graph):
    model = make(2, graph.number_of_nodes(), [(u, v, 0.5) for u, v in graph.edges()])
    assert exact._min_fill_order(model) == full_recompute_min_fill(model)


# -- samplers -------------------------------------------------------------------


def test_sample_exact_draws_unchanged():
    """sample_exact maps seeds to draws as a separate normalise-and-choose did."""
    m = make(3, 5, ((0, 1, 0.9), (1, 2, -0.5), (3, 4, 0.3)), field=((1, 2, 0.6), (4, 0, -1.1)))
    dist = ExactDistribution.from_model(m)

    def reference(rng, size):
        p = np.exp(dist.log_probs)
        p /= p.sum()
        if size is None:
            return dist.configuration(int(rng.choice(len(p), p=p)))
        idx = rng.choice(len(p), size=size, p=p)
        return [Configuration(tuple(row)) for row in decode_spins(m, idx).tolist()]

    for seed in range(5):
        for size in (None, 1, 37):
            got = sample_exact(dist, np.random.default_rng(seed), size=size)
            assert pickle.dumps(got) == pickle.dumps(reference(np.random.default_rng(seed), size))
