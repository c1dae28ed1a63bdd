import math
import re
import tracemalloc
import warnings
from dataclasses import astuple

import _reference_divergence as ref
import numpy as np
import pytest
from mpmath import mp, mpf

from mialab import divergence
from mialab.divergence import (
    BoundsReport,
    c_coeff,
    certify_bounds,
    sample_dirichlet_joint,
)
from mialab.errors import UnboundedRatioError, ValidationError

from _divergence_fixtures import (
    channel_tv,
    decompose,
    dominance_probe,
    laws,
    log_joint_vector_channel,
    lr_constants,
    marginal_skew_pair,
    matched_normalizer_pair,
    scalar_conditional_channel,
    scalar_log_joint_channel,
    softmax_channel,
)

mp.dps = 50


def _channel(outcomes):
    outcomes = np.asarray(outcomes, dtype=np.int64)
    return outcomes, int(outcomes.max()) + 1


def _tv_before_and_after(P, Q, channel):
    """TV of the joint pair and of the pair's laws through ``channel``."""
    return decompose(P, Q).tv_joint, channel_tv(P, Q, channel)


def _column(v):
    """An (n, 1) table: its marginal is ``v`` and so is its flattened table."""
    return np.array(v, dtype=np.float64)[:, None]


def _marginal(p, q) -> BoundsReport:
    return decompose(_column(p), _column(q))


# ------------------------------------------------------------------ tv / kl


def test_tv_cases():
    for p, q, want in (([0.5, 0.5], [0.5, 0.5], 0.0), ([1.0, 0.0], [0.0, 1.0], 1.0),
                       ([0.5, 0.5], [1.0, 0.0], 0.5)):
        rep = _marginal(p, q)
        assert rep.tv_marginal == rep.tv_joint == want
        assert channel_tv(_column(p), _column(q), _channel([[0], [1]])) == want


def test_kl_cases():
    assert _marginal([0.3, 0.7], [0.3, 0.7]).kl_x == 0.0
    assert _marginal([1.0, 0.0], [0.5, 0.5]).kl_x == pytest.approx(math.log(2), abs=1e-15)
    expected = float(mpf("0.5") * mp.log(mpf("0.5") / mpf("0.75"))
                     + mpf("0.5") * mp.log(mpf("0.5") / mpf("0.25")))
    assert _marginal([0.5, 0.5], [0.75, 0.25]).kl_x == pytest.approx(expected, abs=1e-15)
    assert _marginal([0.5, 0.5], [0.75, 0.25]).kl_x == pytest.approx(0.143841, abs=5e-7)
    assert _marginal([0.5, 0.5], [1.0, 0.0]).kl_x == math.inf


def test_divergences_match_high_precision_oracle():
    # 50-digit re-evaluation of tv, kl, and the full decomposition
    rng = np.random.default_rng(0)
    for _ in range(20):
        jp, jq = sample_dirichlet_joint(rng, 6, 4, size=2)
        P = [[mpf(v) for v in row] for row in jp]
        Q = [[mpf(v) for v in row] for row in jq]
        px = [sum(row) for row in P]
        qx = [sum(row) for row in Q]

        tv_joint = sum(abs(a - b) for rp, rq in zip(P, Q) for a, b in zip(rp, rq)) / 2
        tv_marg = sum(abs(a - b) for a, b in zip(px, qx)) / 2
        kl_x = sum(a * mp.log(a / b) for a, b in zip(px, qx) if a > 0)
        exp_tv_c = sum(
            pxi * sum(abs(a / pxi - b / qxi) for a, b in zip(rp, rq)) / 2
            for pxi, qxi, rp, rq in zip(px, qx, P, Q) if pxi > 0
        )
        exp_kl_c = sum(
            pxi * sum((a / pxi) * mp.log((a / pxi) / (b / qxi))
                      for a, b in zip(rp, rq) if a > 0)
            for pxi, qxi, rp, rq in zip(px, qx, P, Q) if pxi > 0
        )
        rep = decompose(jp, jq)
        assert rep.tv_joint == pytest.approx(float(tv_joint), abs=1e-12)
        assert rep.tv_marginal == pytest.approx(float(tv_marg), abs=1e-12)
        assert rep.kl_x == pytest.approx(float(kl_x), abs=1e-12)
        assert rep.exp_cond_tv == pytest.approx(float(exp_tv_c), abs=1e-12)
        assert rep.exp_kl_cond == pytest.approx(float(exp_kl_c), abs=1e-12)


# ------------------------------------------------------------------ decompose


def test_decompose_identical_pair_is_all_zero():
    rng = np.random.default_rng(1)
    P = sample_dirichlet_joint(rng, 5, 3, size=1)[0]
    rep = decompose(P, P)
    assert rep.tv_joint == 0.0
    assert rep.lower == 0.0 and rep.upper == 0.0
    assert rep.kl_x == 0.0 and rep.exp_kl_cond == 0.0


def test_decompose_product_structure_tightness():
    # P = pX (x) c, Q = qX (x) c with a shared conditional: only marginals
    # differ, the conditional terms vanish, and the sandwich pinches shut
    rng = np.random.default_rng(2)
    c = rng.dirichlet(np.ones(4))
    px = rng.dirichlet(np.ones(6))
    qx = rng.dirichlet(np.ones(6))
    rep = decompose(px[:, None] * c[None, :], qx[:, None] * c[None, :])
    assert rep.exp_cond_tv == pytest.approx(0.0, abs=1e-14)
    assert rep.tv_joint == pytest.approx(rep.tv_marginal, abs=1e-12)
    assert rep.lower == pytest.approx(rep.upper, abs=1e-12)


def test_decompose_random_sandwich_and_pinsker():
    rng = np.random.default_rng(3)
    for _ in range(300):
        rep = decompose(*sample_dirichlet_joint(rng, 6, 4, size=2))
        assert rep.lower <= rep.tv_joint + 1e-12
        assert rep.tv_joint <= rep.upper + 1e-12
        assert rep.tv_joint <= rep.pinsker_upper + 1e-12
        assert rep.upper <= rep.pinsker_upper + 1e-12


def test_decompose_zero_shadow_marginal_edge():
    # Q puts no mass on x=0 while P does: KL terms blow up, TV terms stay
    # finite, and the sandwich still holds
    rep = decompose(np.array([[0.2, 0.2], [0.3, 0.3]]), np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert rep.kl_x == math.inf
    assert rep.exp_kl_cond == math.inf
    assert rep.pinsker_upper == math.inf
    assert math.isfinite(rep.tv_joint) and math.isfinite(rep.exp_cond_tv)
    assert rep.lower <= rep.tv_joint + 1e-12 <= rep.upper + 2e-12


# ------------------------------------------------------------------ channels


def test_pushforward_identity_and_constant():
    rng = np.random.default_rng(4)
    P = sample_dirichlet_joint(rng, 3, 2, size=1)[0]
    flat, _ = laws(P, P, _channel(np.arange(6).reshape(3, 2)))
    np.testing.assert_allclose(flat, P.ravel())
    point, _ = laws(P, P, _channel(np.zeros((3, 2))))
    np.testing.assert_allclose(point, [1.0])


def test_pushforward_argmax_channel_matches_enumeration():
    rng = np.random.default_rng(5)
    posterior_table = rng.dirichlet(np.ones(4), size=6)
    channel = _channel(np.repeat(np.argmax(posterior_table, axis=1)[:, None], 4, axis=1))
    P = sample_dirichlet_joint(rng, 6, 4, size=1)[0]
    law, _ = laws(P, P, channel)
    oracle = np.zeros(channel[1])
    for x in range(6):
        for y in range(4):
            oracle[int(np.argmax(posterior_table[x]))] += P[x, y]
    np.testing.assert_allclose(law, oracle, atol=1e-15)


def test_dpi_injective_and_merge_all():
    rng = np.random.default_rng(6)
    P, Q = sample_dirichlet_joint(rng, 4, 3, size=2)
    before, after = _tv_before_and_after(P, Q, _channel(np.arange(12).reshape(4, 3)))
    assert after == pytest.approx(before, abs=1e-15)
    _, after_const = _tv_before_and_after(P, Q, _channel(np.zeros((4, 3))))
    assert after_const == pytest.approx(0.0, abs=1e-15)


def test_softmax_coarsening_never_beats_log_joint_vector():
    rng = np.random.default_rng(7)
    for _ in range(200):
        P, Q = sample_dirichlet_joint(rng, 6, 4, size=2)
        tv_vec = channel_tv(P, Q, log_joint_vector_channel(P))
        tv_soft = channel_tv(P, Q, softmax_channel(P))
        assert tv_soft <= tv_vec + 1e-12


def test_matched_normalizer_instances_reach_equality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        P, Q = matched_normalizer_pair(rng)
        vec = log_joint_vector_channel(P)
        soft = softmax_channel(P)
        # the quotient genuinely merges rows here
        assert soft[1] < vec[1]
        assert channel_tv(P, Q, soft) == pytest.approx(channel_tv(P, Q, vec), abs=1e-10)


def test_scalar_log_joint_channel_merges_equal_scores():
    assert scalar_log_joint_channel(np.array([[0.25, 0.25], [0.25, 0.25]]))[1] == 1
    assert scalar_log_joint_channel(np.array([[0.4, 0.1], [0.4, 0.1]]))[1] == 2
    # distinct positives 0.5, 0.3, 0.2 plus the zero class
    assert scalar_log_joint_channel(np.array([[0.5, 0.0], [0.3, 0.2]]))[1] == 4


# ------------------------------------------------------------ dominance ops


def test_c_coeff_values_and_validation():
    assert c_coeff(0.7, 0.7) == 0.0
    assert c_coeff(1.0, math.e) == pytest.approx(0.5, abs=1e-12)
    expected = math.log(4) / (1 + math.log(4))
    assert c_coeff(0.5, 2.0) == pytest.approx(expected, abs=1e-12)
    assert c_coeff(0.5, 2.0) == pytest.approx(0.5810, abs=1e-4)
    for bad in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValidationError):
            c_coeff(*bad)


def test_c_coeff_monotone_and_bounded():
    prev = -1.0
    for ratio in np.logspace(0, 8, 40):
        value = c_coeff(1.0, float(ratio))
        assert 0.0 <= value < 1.0
        assert value >= prev
        prev = value


def test_lr_constants_identity_and_enumeration():
    rng = np.random.default_rng(9)
    P = sample_dirichlet_joint(rng, 5, 3, size=1)[0]
    assert lr_constants(P, P) == pytest.approx((1.0, 1.0))

    Q = sample_dirichlet_joint(rng, 5, 3, size=1)[0]
    alpha, beta = lr_constants(P, Q)
    ratios = []
    for x in range(5):
        px = P[x].sum()
        qx = Q[x].sum()
        for y in range(3):
            ratios.append((P[x, y] / px) / (Q[x, y] / qx))
    assert alpha == pytest.approx(min(ratios), abs=1e-15)
    assert beta == pytest.approx(max(ratios), abs=1e-15)


def test_lr_constants_matched_conditionals_skewed_marginals():
    rng = np.random.default_rng(10)
    cond = rng.dirichlet(np.ones(3), size=4)
    px = rng.dirichlet(np.ones(4))
    qx = rng.dirichlet(np.ones(4))
    P, Q = px[:, None] * cond, qx[:, None] * cond
    alpha, beta = lr_constants(P, Q)
    assert (alpha, beta) == (pytest.approx(1.0), pytest.approx(1.0))
    assert c_coeff(alpha, beta) == pytest.approx(0.0, abs=1e-12)
    holds, bound, tv_scalar = dominance_probe(P, Q)
    # c = 0 at the alpha == beta boundary: the strict dominance condition
    # degenerates even though the marginals carry all the signal.  Float
    # rounding may leave ratios a few ulps off 1, in which case the bound it
    # triggers is vacuous rather than wrong.
    if holds:
        assert bound <= 1e-7
        assert tv_scalar >= bound - 1e-12


def test_lr_constants_unbounded():
    P = np.array([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(UnboundedRatioError, match=re.escape("unbounded at (x=0, y=1)")):
        dominance_probe(P, np.array([[0.5, 0.0], [0.25, 0.25]]))
    with pytest.raises(UnboundedRatioError, match="Q has no mass at supported x=0"):
        dominance_probe(P, np.array([[0.0, 0.0], [0.5, 0.5]]))


def test_dominance_probe_identical_pair():
    rng = np.random.default_rng(11)
    P = sample_dirichlet_joint(rng, 4, 2, size=1)[0]
    holds, bound, tv_scalar = dominance_probe(P, P)
    assert bound == 0.0
    assert decompose(P, P).pinsker_upper == 0.0
    assert tv_scalar == 0.0
    assert not holds


def test_dominance_probe_random_certification():
    rng = np.random.default_rng(12)
    held = 0
    for _ in range(300):
        holds, bound, tv_scalar = dominance_probe(*sample_dirichlet_joint(rng, 6, 4, size=2))
        if holds:
            held += 1
            assert tv_scalar >= bound - 1e-12
    # mostly informational; random pairs rarely satisfy the condition


def test_dominance_probe_constructed_skew_instances():
    # near-matched conditionals plus independent marginals make the
    # dominance condition bite on essentially every draw
    rng = np.random.default_rng(13)
    held = 0
    for _ in range(100):
        P, Q = marginal_skew_pair(rng, 6, 4, delta=0.05)
        holds, _, tv_scalar = dominance_probe(P, Q)
        if not holds:
            continue
        held += 1
        report = decompose(P, Q)
        gap = c_coeff(*lr_constants(P, Q)) * report.kl_x - report.exp_kl_cond
        # this family stresses the bound far harder than flat-Dirichlet
        # pairs; the linear form survives it, the square-root form does not
        # (it fails once KL_X gets large), so only the former is asserted here
        assert tv_scalar >= gap / math.sqrt(2) - 1e-12
        # the headline comparison: the scalar joint channel beats the
        # scalar conditional channel whenever the condition holds
        assert tv_scalar >= channel_tv(P, Q, scalar_conditional_channel(P)) - 1e-12
    assert held >= 90


def test_certify_bounds_runs_clean():
    reports, violations = certify_bounds(100, 6, 4, seed=0)
    assert len(reports) == 100
    assert violations == 0
    assert all(isinstance(r, BoundsReport) for r in reports)
    with pytest.raises(ValidationError):
        certify_bounds(10, 1, 4)
    with pytest.raises(ValidationError):
        certify_bounds(-1, 6, 4)


@pytest.mark.parametrize("args, kwargs", [
    ((2.5, 6, 4), {}), ((3, 6.0, 4), {}), ((3, 6, 4.0), {}), ((3, 6, 4), {"seed": 2.5}),
    ((True, 6, 4), {}), ((3, True, 4), {}), ((3, 6, False), {}), ((3, 6, 4), {"seed": True}),
    ((np.float64(3.0), 6, 4), {}), ((3, 6, 4), {"seed": "1"}),
], ids=["trials_float", "x_float", "y_float", "seed_float", "trials_bool", "x_bool",
        "y_bool", "seed_bool", "trials_numpy_float", "seed_str"])
def test_certify_rejects_counts_and_seeds_that_are_not_integers(args, kwargs):
    with pytest.raises(ValidationError, match="must be an integer"):
        divergence.certify(*args, **kwargs)


def test_certify_accepts_numpy_integers():
    assert divergence.certify(np.int64(3), np.int32(6), np.uint8(4), seed=np.int64(0)) == \
        divergence.certify(3, 6, 4, seed=0)


def test_sized_draw_of_no_tables_is_an_empty_stack():
    rng = np.random.default_rng(0)
    tables = sample_dirichlet_joint(rng, 6, 4, size=0)
    assert tables.shape == (0, 6, 4)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_joint_validation():
    with pytest.raises(ValidationError, match="table mass"):
        divergence._check_tables(np.array([[[0.5, 0.4]]]), 1, 2)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        divergence._check_tables(np.array([[[0.5, -0.1], [0.3, 0.3]]]), 2, 2)
    with pytest.raises(ValidationError, match="table shape"):
        divergence._check_tables((np.ones(4) / 4)[None], 2, 2)


def test_random_channels_never_increase_tv():
    rng = np.random.default_rng(14)
    for _ in range(100):
        P, Q = sample_dirichlet_joint(rng, 5, 3, size=2)
        n_out = int(rng.integers(1, 16))
        outcomes = rng.integers(0, n_out, size=(5, 3))
        before, after = _tv_before_and_after(P, Q, (outcomes, n_out))
        assert after <= before + 1e-12
        assert before <= 1.0 + 1e-12


# ------------------------------------------------------- per-x loop oracle

_CHANNELS = (log_joint_vector_channel, softmax_channel,
             scalar_log_joint_channel, scalar_conditional_channel)


def _random_table(rng, shape, mode):
    t = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    if mode == "zero_atoms":
        t[rng.random(shape) < 0.3] = 0.0
        t[0, 0] += 0.1  # keep some mass
    elif mode == "zero_row":
        t[rng.integers(shape[0])] = 0.0
    elif mode == "repeated_rows":
        t[-1] = t[0]
        t[1] = 2.0 * t[0]
    return t / t.sum()


def _edge_pairs():
    rng = np.random.default_rng(21)
    full = rng.dirichlet(np.ones(12)).reshape(4, 3)
    zero_atoms = np.array([[0.2, 0.0, 0.1], [0.3, 0.1, 0.0], [0.0, 0.1, 0.0], [0.1, 0.0, 0.1]])
    zero_row = np.array([[0.2, 0.1, 0.1], [0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.1, 0.1, 0.0]])
    duplicated = full.copy()
    duplicated[2] = duplicated[0]
    proportional = full.copy()
    proportional[1] = 0.5 * proportional[3]
    pairs = [(t / t.sum(), full) for t in (zero_atoms, zero_row, duplicated, proportional)]
    pairs.append((zero_atoms, zero_row))
    pairs += [matched_normalizer_pair(rng) for _ in range(5)]
    return pairs + [(q, p) for p, q in pairs]


def _random_pairs():
    rng = np.random.default_rng(22)
    modes = ("full", "zero_atoms", "zero_row", "repeated_rows")
    for shape in ((2, 2), (3, 5), (6, 4), (7, 9), (8, 4), (12, 10), (30, 6), (40, 40)):
        for trial in range(24):
            mode = modes[trial % 4]
            yield _random_table(rng, shape, mode), _random_table(rng, shape, mode)
    # zero atoms in P alone keep every conditional KL finite; at y >= 8 they
    # show whether its row sums skip the zero terms, as the loop does
    rng = np.random.default_rng(23)
    for shape in ((3, 8), (4, 9), (12, 10), (7, 33)):
        for _ in range(6):
            yield _random_table(rng, shape, "zero_atoms"), _random_table(rng, shape, "full")


def test_vectorized_oracle_matches_per_x_loops():
    for P, Q in [*_edge_pairs(), *_random_pairs()]:
        assert astuple(decompose(P, Q)) == ref.decompose(P, Q)
        for build in _CHANNELS:
            outcomes, size = build(P)
            want_outcomes, want_size = getattr(ref, build.__name__)(P)
            assert size == want_size
            np.testing.assert_array_equal(outcomes, want_outcomes)
        try:
            want_ratio = ref.lr_constants(P, Q)
        except ref.Unbounded as exc:
            with pytest.raises(UnboundedRatioError, match=re.escape(str(exc))):
                dominance_probe(P, Q)
        else:
            assert lr_constants(P, Q) == want_ratio


def test_conditionals_mark_zero_marginal_rows_without_warning():
    P = np.array([[0.2, 0.2], [0.0, 0.0], [0.5, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        px, cond = divergence._conditional_stack(P)
        logs = divergence._log_tables(P)
    np.testing.assert_array_equal(px, P.sum(axis=1))
    np.testing.assert_array_equal(cond, [[0.5, 0.5], [-1.0, -1.0], [0.5 / 0.6, 0.1 / 0.6]])
    np.testing.assert_array_equal(logs, [[math.log(0.2), math.log(0.2)], [-math.inf, -math.inf],
                                         [math.log(0.5), math.log(0.1)]])


def _meets_check_5(P, Q):
    """Whether check 5 applies to the pair, so it goes through the scalar channel."""
    return bool(ref.certify([(P, Q)])[2][4][0])


def _chains_column_0(P):
    """Whether column 0 of the target's log table or of its posterior has a
    sorted gap of at most the grouping tolerance, so its rows may merge and
    the pair goes through the row channels."""
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = (np.log(P[:, 0]), ref._conditional_rows(P)[:, 0])
        return any((~(np.diff(np.sort(c)) > ref.GROUP_ATOL)).any() for c in columns)


@pytest.mark.parametrize("cap, chunks", [(divergence._STACK_ELEMENTS, 1), (8, 3)],
                         ids=["one_chunk", "three_chunks"])
def test_certify_bounds_does_each_stack_step_once_per_chunk(monkeypatch, stack_work_calls,
                                                           cap, chunks):
    # 8 entries hold two 2 x 2 pairs, so five trials take three chunks
    monkeypatch.setattr(divergence, "_STACK_ELEMENTS", cap)
    certify_bounds(5, 2, 2)
    pairs = list(ref.dirichlet_pairs(5, 2, 2, 0))
    per_chunk = max(1, cap // 4)
    # per chunk: one draw of all its tables, one kernel pass, one conditional
    # table for all its tables, one unbounded-ratio test that the
    # decomposition and the dominance probe share, one decomposition, one
    # dominance probe and one log of the target stack; then one scalar-channel
    # pushforward of the pairs check 5 applies to, and one pass per row
    # channel and one row-channel pushforward of the pairs whose column 0
    # chains two rows, each only where some pair needs it
    want = []
    for start in range(0, len(pairs), per_chunk):
        chunk = pairs[start:start + per_chunk]
        want += ["sample_dirichlet_joint", "_certify_stack", "_conditional_stack",
                 "_unbounded_rows", "decompose", "dominance_probe", "_log_tables"]
        checked = sum(_meets_check_5(P, Q) for P, Q in chunk)
        if checked:
            want.append(("pushforward", checked))
        merges = sum(_chains_column_0(P) for P, _ in chunk)
        if merges:
            want += [(name, merges) for name in
                     ("log_joint_vector_channel", "softmax_channel", "pushforward")]
    # pairs 1 and 3 meet check 5 and no column 0 chains two rows: one chunk
    # runs the scalar channel's pushforward once, three chunks twice
    assert len(want) == 7 * chunks + min(chunks, 2)
    assert stack_work_calls == want


@pytest.fixture
def pushforward_stacks(monkeypatch):
    """A copy of every stack of pairs that ``pushforward`` receives."""
    stacks = []
    real = divergence.pushforward

    def recording(tables, channels):
        stacks.append(tables.copy())
        return real(tables, channels)

    monkeypatch.setattr(divergence, "pushforward", recording)
    return stacks


def test_generic_stack_sends_no_pair_through_the_channels(pushforward_stacks):
    # no pair of this stack meets check 5's condition, and no target has close rows
    result = divergence.certify(20, 6, 4, seed=0)
    assert result.checks[4].triggered == 0
    assert [len(stack) for stack in pushforward_stacks] == []
    assert result.checks[3].min_slack == 0.0
    _assert_matches_reference(result, ref.dirichlet_pairs(20, 6, 4, 0))


# ------------------------------------------------------- row grouping

_ATOL = ref.GROUP_ATOL
_BASE_ROW = np.log([0.1, 0.2, 0.3, 0.4])
# stack sizes in entries: one table alone, a few small tables, thousands of tables
_STACK_CAPS = (1 << 18, 24, 1)

# name -> (rows, expected group of each row)
_GROUPING_EDGES = {
    # closeness does not chain: the third row is 1.2 atol from the opener
    "tolerance_chain": ([_BASE_ROW, _BASE_ROW + 0.6 * _ATOL, _BASE_ROW + 1.2 * _ATOL],
                        [0, 0, 1]),
    # equal -inf entries are close; -inf against a finite entry is not
    "shared_minus_inf": ([[-np.inf, -1.0, -np.inf], [-np.inf, -1.0 + 0.5 * _ATOL, -np.inf],
                          [-np.inf, -np.inf, -np.inf], [-1.0, -1.0, -np.inf],
                          [-np.inf, -np.inf, -np.inf]],
                         [0, 0, 1, 2, 1]),
    # a row within atol of two openers joins the first of them
    "close_to_two_openers": ([_BASE_ROW, _BASE_ROW + 1.5 * _ATOL, _BASE_ROW + 0.75 * _ATOL],
                             [0, 1, 0]),
    "close_to_two_openers_reversed": ([_BASE_ROW + 1.5 * _ATOL, _BASE_ROW,
                                       _BASE_ROW + 0.75 * _ATOL],
                                      [0, 1, 0]),
}


def _among_chain_free_tables(rows, cap):
    """A stack of ``max(1, cap // rows.size)`` tables: ``rows`` at each even
    place, and at each odd place a table whose rows are 1 apart in every
    entry, so its column 0 has one chain per row and it skips the greedy."""
    count = max(1, cap // rows.size)
    steps = np.arange(len(rows), dtype=np.float64)[:, None]
    stack = np.broadcast_to(steps, (count, *rows.shape)).copy()
    stack[::2] = rows
    return stack


@pytest.mark.parametrize("cap", _STACK_CAPS)
@pytest.mark.parametrize("case", list(_GROUPING_EDGES))
def test_row_grouping_edges_match_oracle(case, cap):
    rows, groups = _GROUPING_EDGES[case]
    rows = np.asarray(rows, dtype=np.float64)
    got, sizes = divergence.log_joint_vector_channel(_among_chain_free_tables(rows, cap))
    outcomes, size = ref._group_rows(rows)
    np.testing.assert_array_equal(outcomes[:, 0], groups)
    np.testing.assert_array_equal(got[::2], np.broadcast_to(outcomes.ravel(), got[::2].shape))
    assert (sizes[::2] == size).all()
    labels = np.repeat(np.arange(len(rows)), rows.shape[1])
    np.testing.assert_array_equal(got[1::2], np.broadcast_to(labels, got[1::2].shape))
    assert (sizes[1::2] == len(rows)).all()


@pytest.mark.parametrize("cap", _STACK_CAPS)
def test_row_grouping_across_blocks_matches_oracle(cap):
    """Rows a fraction of atol apart, some with -inf entries, in stacks of
    at most ``cap`` entries, so a table's groups cannot lean on its stack."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        y_size = int(rng.integers(1, 5))
        bases = np.log(rng.dirichlet(np.ones(y_size), size=int(rng.integers(1, 6))))
        bases[rng.random(bases.shape) < 0.2] = -np.inf
        x_size = int(rng.integers(1, 25))
        offsets = rng.choice([-1.2, -0.6, 0.0, 0.6, 1.2], size=(6, x_size, y_size)) * _ATOL
        tables = bases[rng.integers(len(bases), size=(6, x_size))] + offsets
        per_stack = max(1, cap // (x_size * y_size))
        for start in range(0, len(tables), per_stack):
            stack = tables[start:start + per_stack]
            got, sizes = divergence.log_joint_vector_channel(stack)
            for rows, outcomes, size in zip(stack, got, sizes):
                want, want_size = ref._group_rows(rows)
                np.testing.assert_array_equal(outcomes.reshape(rows.shape), want)
                assert size == want_size


def _random_row_stack(rng, mode):
    """A (T, x, y) stack of rows a fraction of atol apart, some with -inf
    entries; ``mode`` 1 adds +inf and nan entries, 2 shares column 0 across
    each table while the other columns differ, 3 puts column 0 within atol
    while the other columns differ, and 4 spreads column 0 over a few chains
    1 apart, so rows of several chains interleave."""
    count, x_size, y_size = (int(rng.integers(1, high)) for high in (5, 25, 5))
    bases = np.log(rng.dirichlet(np.ones(y_size), size=(count, int(rng.integers(1, 6)))))
    bases[rng.random(bases.shape) < 0.15] = -np.inf
    if mode == 1:
        for value in (np.inf, np.nan):
            bases[rng.random(bases.shape) < 0.05] = value
    rows = np.take_along_axis(bases, rng.integers(bases.shape[1], size=(count, x_size, 1)),
                              axis=1)
    rows = rows + rng.choice([-1.5, -1.2, -0.6, -0.3, 0.0, 0.3, 0.6, 1.2, 1.5],
                             size=rows.shape) * _ATOL
    if mode == 2:
        rows[..., 0] = rows[:, :1, 0]
    if mode >= 3:
        rows[..., 0] = 0.5 + rng.choice([0.0, 0.4, 0.8], size=(count, x_size)) * _ATOL
    if mode == 4:
        rows[..., 0] += rng.integers(4, size=(count, x_size))
    if mode >= 2:
        rows[..., 1:] += rng.choice([0.0, 1.0, 10 * _ATOL], size=rows[..., 1:].shape)
    return rows


@pytest.mark.parametrize("mode", [0, 1, 2, 3, 4],
                         ids=["near", "inf_nan", "shared_x0", "close_x0", "chains_x0"])
def test_row_channel_stack_matches_oracle_on_random_stacks(mode):
    """Each table of a stack, whether or not its column 0 chains rows together."""
    rng = np.random.default_rng(33 + mode)
    grouped = 0
    for _ in range(150):
        rows = _random_row_stack(rng, mode)
        got, sizes = divergence._row_channel_stack(rows)
        for table, outcomes, size in zip(rows, got, sizes):
            want, want_size = ref._group_rows(table)
            np.testing.assert_array_equal(outcomes.reshape(table.shape), want)
            assert size == want_size
            grouped += size < len(table)
    assert grouped > 50  # the greedy grouping really runs


def test_row_grouping_holds_a_bounded_temporary():
    # one (x, x, y) closeness broadcast at 2000 x 4 would peak near 244 MB
    tables = sample_dirichlet_joint(np.random.default_rng(32), 2000, 4, size=1)
    cond = divergence._conditional_stack(tables)[1]
    cond[0, 1] = cond[0, 0]  # one close pair, so the greedy grouping runs too
    tracemalloc.start()
    try:
        _, sizes = divergence.softmax_channel(cond)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes[0] == 1999
    assert peak < 2**20


# ------------------------------------------------------- stacked certification

def _assert_matches_reference(result, pairs):
    reports, violations, counts = ref.certify(pairs)
    assert [astuple(r) for r in result.reports] == reports
    assert result.violations == violations
    assert [(c.triggered, c.violations, c.min_slack) for c in result.checks] == counts
    assert [check.name for check in result.checks] == list(divergence.CHECKS)


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("shape, trials", [((2, 2), 200), ((3, 2), 200), ((8, 2), 200),
                                           ((2, 3), 200), ((3, 3), 200), ((4, 4), 200),
                                           ((6, 4), 100)])
def test_certify_matches_per_pair_reference(shape, trials, seed):
    result = divergence.certify(trials, *shape, seed=seed)
    _assert_matches_reference(result, ref.dirichlet_pairs(trials, *shape, seed))


def test_certify_matches_per_pair_reference_on_many_rows():
    # 600 rows take more than one block of the row channels' closeness pass
    result = divergence.certify(2, 600, 2, seed=0)
    _assert_matches_reference(result, ref.dirichlet_pairs(2, 600, 2, 0))


def _normalised(*tables):
    return [np.asarray(t, dtype=np.float64) / np.sum(t) for t in tables]


def _hand_built_pairs():
    rng = np.random.default_rng(41)
    full = rng.dirichlet(np.ones(12)).reshape(4, 3)
    other = rng.dirichlet(np.ones(12)).reshape(4, 3)
    shared_zeros = rng.random((4, 3)) < 0.3
    shared_zeros[0, 0] = False
    zero_atoms = _normalised(np.where(shared_zeros, 0.0, full), np.where(shared_zeros, 0.0, other))
    # rows equal (log-joint vector channel) or proportional (softmax channel)
    # within _GROUP_ATOL, so the greedy grouping runs
    near = full.copy()
    near[2] = near[0] * (1.0 + 1e-12)
    near[3] = 0.5 * near[1]
    close_rows = _normalised(near, other)
    # equal atoms tie in log value and merge in the scalar channel (4 x 3 >= 8 atoms)
    ties = _normalised(np.full((4, 3), 1.0) + np.eye(4, 3), other)
    # a zero marginal row shared by both tables, at x >= 8
    wide_p, wide_q = rng.dirichlet(np.ones(18)).reshape(9, 2), rng.dirichlet(np.ones(18)).reshape(9, 2)
    wide_p[4] = wide_q[4] = 0.0
    wide = _normalised(wide_p, wide_q)
    # a zero marginal row in p alone: p's row is unseen, every ratio stays bounded
    p_zero_row = full.copy()
    p_zero_row[1] = 0.0
    return {"zero_atoms": zero_atoms, "close_rows": close_rows, "tied_logs": ties,
            "zero_row_x9": wide, "p_zero_row": _normalised(p_zero_row, other)}


@pytest.mark.parametrize("cap", [1 << 18, 24])
def test_certify_stack_matches_reference_on_hand_built_pairs(cap):
    pairs = _hand_built_pairs()
    # the greedy grouping really is exercised, and the scalar channel merges
    assert ref.softmax_channel(pairs["close_rows"][0])[1] < 4
    assert ref.log_joint_vector_channel(pairs["close_rows"][0])[1] < 4
    assert ref.scalar_log_joint_channel(pairs["tied_logs"][0])[1] < 12
    for pair in pairs.values():
        result = divergence._certify_chunks([np.stack(pair)[None]])
        _assert_matches_reference(result, [pair])
    same_shape = [np.stack(pair) for pair in pairs.values() if pair[0].shape == (4, 3)]
    per_chunk = max(1, cap // 12)  # as _dirichlet_chunks splits at cap entries a table
    chunks = [np.stack(same_shape[start:start + per_chunk])
              for start in range(0, len(same_shape), per_chunk)]
    assert len(chunks) == (1 if cap > 48 else 2)
    result = divergence._certify_chunks(chunks)
    _assert_matches_reference(result, same_shape)


def test_mixed_stack_sends_only_the_pairs_that_need_the_channels(pushforward_stacks):
    hand_built = _hand_built_pairs()
    rng = np.random.default_rng(43)
    generic = [tuple(sample_dirichlet_joint(rng, 4, 3, size=2)) for _ in range(3)]
    skew = marginal_skew_pair(rng, 4, 3)
    pairs = [generic[0], hand_built["close_rows"], generic[1], skew, hand_built["tied_logs"],
             generic[2]]
    # close_rows merges rows, tied_logs ties column 0, and check 5 applies to
    # skew and tied_logs alone
    assert ref.softmax_channel(hand_built["close_rows"][0])[1] < 4
    assert [ref.certify([pair])[2][4][0] for pair in pairs] == [0, 0, 0, 1, 1, 0]
    assert [_chains_column_0(P) for P, _ in pairs] == [False, True, False, False, True, False]
    stack = np.stack([np.stack(pair) for pair in pairs])
    result = divergence._certify_chunks([stack])
    # the scalar channel takes the pairs check 5 applies to, the row channels
    # the pairs whose column 0 chains two rows
    assert [s.tobytes() for s in pushforward_stacks] == [stack[[3, 4]].tobytes(),
                                                        stack[[1, 4]].tobytes()]
    _assert_matches_reference(result, pairs)


def test_certify_stack_raises_the_first_failing_pairs_error():
    pairs = _hand_built_pairs()
    full_p, other = pairs["close_rows"]
    q_zero_row = other.copy()
    q_zero_row[2] = 0.0
    q_zero_atom = other.copy()
    q_zero_atom[3, 1] = 0.0
    p_zero_atom = full_p.copy()
    p_zero_atom[1, 2] = 0.0
    failing = {
        "no_q_mass": _normalised(full_p, q_zero_row),
        "q_zero_atom": _normalised(full_p, q_zero_atom),
        "p_zero_atom": _normalised(p_zero_atom, other),  # a zero ratio: c is undefined
    }
    for order in (("no_q_mass", "q_zero_atom", "p_zero_atom"),
                  ("q_zero_atom", "no_q_mass"), ("p_zero_atom", "no_q_mass")):
        stack = [pairs["zero_atoms"], pairs["p_zero_row"], *(failing[name] for name in order)]
        with pytest.raises((ref.Unbounded, ValueError)) as want:
            ref.certify(stack)
        error = UnboundedRatioError if isinstance(want.value, ref.Unbounded) else ValidationError
        with pytest.raises(error, match=re.escape(str(want.value))):
            divergence._certify_chunks([np.stack([np.stack(pair) for pair in stack])])
    # the pair that fails holds infinite KL terms, which the decomposition reports
    P, Q = failing["no_q_mass"]
    px, p = divergence._conditional_stack(P[None])
    qx, q = divergence._conditional_stack(Q[None])
    fields = divergence.decompose(P[None], Q[None], px, p, qx, q,
                                  divergence._unbounded_rows(px, p, qx, q))[:, 0]
    assert tuple(fields.tolist()) == ref.decompose(P, Q)
    assert fields[3] == fields[4] == math.inf


def test_dominance_probe_raises_the_first_bad_pairs_error_in_stack_order():
    rng = np.random.default_rng(44)
    full_p, full_q = (rng.dirichlet(np.ones(12)).reshape(4, 3) for _ in range(2))
    p_zero_atom, q_zero_atom = full_p.copy(), full_q.copy()
    p_zero_atom[1, 2] = 0.0  # P(y|x) = 0 < Q(y|x): alpha = 0, so c is undefined
    q_zero_atom[3, 1] = 0.0  # Q(y|x) = 0 < P(y|x): the ratio is unbounded
    zero_alpha = _normalised(p_zero_atom, full_q)
    unbounded = _normalised(full_p, q_zero_atom)
    cases = (([zero_alpha, unbounded], ValidationError, "need 0 < alpha <= beta, got (0.0, "),
             ([unbounded, zero_alpha], UnboundedRatioError,
              "conditional ratio unbounded at (x=3, y=1)"))
    for pairs, error, message in cases:
        px, cond = divergence._conditional_stack(np.stack([np.stack(pair) for pair in pairs]))
        pair = (px[:, 0], cond[:, 0], px[:, 1], cond[:, 1])
        with pytest.raises(error, match=re.escape(message)):
            divergence.dominance_probe(pair, np.zeros(2), np.zeros(2),
                                       divergence._unbounded_rows(*pair))


@pytest.mark.parametrize("shape, cap, chunks", [((6, 4), divergence._STACK_ELEMENTS, 1),
                                                 ((2, 2), divergence._STACK_ELEMENTS, 1),
                                                 ((600, 2), divergence._STACK_ELEMENTS, 1),
                                                 ((6, 4), 48, 3)],
                         ids=["6x4", "2x2", "600x2", "6x4_three_chunks"])
def test_chunk_draws_match_one_table_draws(monkeypatch, shape, cap, chunks):
    monkeypatch.setattr(divergence, "_STACK_ELEMENTS", cap)
    stream, one_at_a_time = np.random.default_rng(9), np.random.default_rng(9)
    stacks = list(divergence._dirichlet_chunks(stream, 5, *shape))
    assert len(stacks) == chunks
    want = [sample_dirichlet_joint(one_at_a_time, *shape, size=1)[0] for _ in range(10)]
    assert np.concatenate(stacks).reshape(10, *shape).tobytes() == np.stack(want).tobytes()
    assert stream.bit_generator.state == one_at_a_time.bit_generator.state


class _SpoiledDraws:
    """A generator whose sized Dirichlet draws have ``delta`` added to one
    atom of their next-to-last table."""

    def __init__(self, delta):
        self.rng, self.delta = np.random.default_rng(4), delta

    def dirichlet(self, alpha, size=None):
        flat = self.rng.dirichlet(alpha, size=size)
        flat[-2, 3] += self.delta
        return flat


@pytest.mark.parametrize("delta", [-1.0, np.nan, np.inf, 1e-10],
                         ids=["negative", "nan", "inf", "mass"])
def test_stacked_draw_checks_every_table_as_a_joint_does(delta):
    bad = _SpoiledDraws(delta).dirichlet(np.ones(24), size=5)[-2]
    with pytest.raises(ValidationError) as want:
        divergence._check_tables(bad.reshape(1, 6, 4), 6, 4)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(want.value))}$"):
        sample_dirichlet_joint(_SpoiledDraws(delta), 6, 4, size=5)


def test_certify_bounds_draws_consecutive_pairs_from_one_stream():
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(7,)))
    want = []
    for _ in range(30):
        P = sample_dirichlet_joint(rng, 3, 4, size=1)[0]
        want.append(decompose(P, sample_dirichlet_joint(rng, 3, 4, size=1)[0]))
    assert certify_bounds(30, 3, 4, seed=5)[0] == want


def test_certify_bounds_with_no_trials():
    assert certify_bounds(0, 6, 4) == ([], 0)
    result = divergence.certify(0, 6, 4)
    assert [(c.triggered, c.violations, c.min_slack) for c in result.checks] == \
        [(0, 0, math.inf)] * 5


def test_certify_tallies_each_check():
    # every violation at 2 x 2 and 3 x 3 comes from the scalar dominance check (5)
    for shape, seed, triggered, violations in (((2, 2), 0, 257, 6), ((3, 3), 1, 100, 2)):
        result = divergence.certify(1000, *shape, seed=seed)
        assert result.violations == violations
        assert [(c.triggered, c.violations) for c in result.checks] == \
            [(1000, 0)] * 4 + [(triggered, violations)]
        assert result.checks[4].min_slack < 0.0 < min(c.min_slack for c in result.checks[:3])


def test_certify_across_chunks_matches_one_chunk(monkeypatch):
    whole = divergence.certify(50, 2, 2, seed=0)
    monkeypatch.setattr(divergence, "_STACK_ELEMENTS", 12)  # three pairs per chunk
    assert divergence.certify(50, 2, 2, seed=0) == whole


def test_certify_bounds_holds_a_bounded_temporary():
    tracemalloc.start()
    try:
        reports, _ = certify_bounds(3, 2000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 3
    assert peak < 16 * 2**20
