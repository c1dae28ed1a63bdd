import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.attacks import AttackScores, ScoreKind
from mialab.errors import InsufficientDataError, MialabError, ValidationError
from mialab.metrics import (
    RESULT_COLUMNS,
    advantage,
    auroc,
    mean_sem,
    read_results_csv,
    sort_key,
    write_results_csv,
    write_table,
)

from _payloads import table_payloads
from _reference_metrics import rank_sum_auroc


def _scores(member, nonmember, kind=ScoreKind.MAX_PROB):
    return AttackScores(
        member_scores=np.asarray(member, dtype=np.float64),
        nonmember_scores=np.asarray(nonmember, dtype=np.float64),
        kind=kind,
    )


def pair_counting_auroc(member, nonmember):
    """Brute-force O(n*m) oracle: wins plus half-credit for ties."""
    member = np.asarray(member, dtype=np.float64)
    nonmember = np.asarray(nonmember, dtype=np.float64)
    wins = (member[:, None] > nonmember[None, :]).sum()
    ties = (member[:, None] == nonmember[None, :]).sum()
    return (wins + 0.5 * ties) / (member.size * nonmember.size)


def test_auroc_basic_cases():
    assert auroc(_scores([0.9, 0.8], [0.7, 0.6])) == 1.0
    assert auroc(_scores([0.3, 0.7], [0.3, 0.7])) == 0.5
    assert auroc(_scores([0.9, 0.6], [0.8, 0.7])) == 0.5


def test_auroc_orientation_applied_first():
    # the orientation is the kind's: entropies and losses are lower on members
    for kind in (ScoreKind.ENTROPY, ScoreKind.LOG_LOSS):
        assert auroc(_scores([0.1, 0.2], [0.8, 0.9], kind)) == 1.0
    assert auroc(_scores([0.1, 0.2], [0.8, 0.9], ScoreKind.MAX_PROB)) == 0.0


def test_auroc_complement_for_tie_free_inputs():
    rng = np.random.default_rng(0)
    member = rng.normal(size=37)
    nonmember = rng.normal(size=53)
    a = auroc(_scores(member, nonmember))
    b = auroc(_scores(nonmember, member))
    assert a + b == pytest.approx(1.0, abs=1e-15)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    member = rng.normal(size=40)
    nonmember = rng.normal(size=40)
    a = auroc(_scores(member, nonmember))
    b = auroc(_scores(np.exp(member), np.exp(nonmember)))
    assert a == b


def test_auroc_equals_pair_counting_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n_m = int(rng.integers(1, 101))
        n_n = int(rng.integers(1, 101))
        # half-integer grid guarantees plenty of ties and exact arithmetic
        member = rng.integers(0, 12, size=n_m) / 2.0
        nonmember = rng.integers(0, 12, size=n_n) / 2.0
        assert auroc(_scores(member, nonmember)) == pair_counting_auroc(member, nonmember)


@settings(max_examples=150, deadline=None)
@given(n_m=st.integers(1, 5000), n_n=st.integers(1, 5000), grid=st.integers(0, 12),
       kind=st.sampled_from([ScoreKind.MAX_PROB, ScoreKind.ENTROPY]),
       seed=st.integers(0, 2**32 - 1))
def test_auroc_counting_equals_rank_sum_bit_for_bit(n_m, n_n, grid, kind, seed):
    # half-integers in [-grid/2, grid/2] tie heavily; a zero is 0.0 or -0.0 at random
    rng = np.random.default_rng(seed)
    sides = []
    for size in (n_m, n_n):
        values = rng.integers(-grid, grid + 1, size=size) / 2.0
        values[values == 0.0] *= rng.choice([1.0, -1.0], size=int((values == 0.0).sum()))
        sides.append(values)
    member, nonmember = sides
    oriented = (-member, -nonmember) if kind is ScoreKind.ENTROPY else (member, nonmember)
    got = auroc(_scores(member, nonmember, kind))
    assert got.hex() == rank_sum_auroc(*oriented).hex()


def test_auroc_counting_equals_rank_sum_on_continuous_scores():
    rng = np.random.default_rng(3)
    for n_m, n_n in ((1, 1), (1, 4000), (50, 4000), (2000, 4000), (4000, 7)):
        member, nonmember = rng.normal(0.1, 1.0, size=n_m), rng.normal(size=n_n)
        for kind in (ScoreKind.MAX_PROB, ScoreKind.LOG_LOSS):
            oriented = (-member, -nonmember) if kind is ScoreKind.LOG_LOSS \
                else (member, nonmember)
            got = auroc(_scores(member, nonmember, kind))
            assert got.hex() == rank_sum_auroc(*oriented).hex()


def test_auroc_empty_side_rejected():
    scores = _scores([0.5], [0.5])
    object.__setattr__(scores, "member_scores", np.array([]))
    with pytest.raises(InsufficientDataError):
        auroc(scores)


def test_advantage():
    assert advantage(0.5) == 0.5
    assert advantage(0.2) == pytest.approx(0.8)
    assert advantage(1.0) == 1.0
    with pytest.raises(ValidationError):
        advantage(1.2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_mean_sem_properties(values):
    mean, sem = mean_sem(np.array(values))
    assert mean == pytest.approx(np.mean(values), abs=1e-9)
    assert sem >= 0.0
    if len(values) == 1:
        assert sem == 0.0


def test_mean_sem_cases():
    assert mean_sem(np.array([3.0])) == (3.0, 0.0)
    assert mean_sem(np.array([1.0, 1.0, 1.0, 1.0])) == (1.0, 0.0)
    mean, sem = mean_sem(np.array([0.0, 1.0]))
    assert (mean, sem) == (0.5, 0.5)


def test_results_csv_round_trip(tmp_path):
    rows = [
        dict(d=16, n_train=50, mu=0.1, sigma=0.15, sigma_noise=1.0, w=0.5,
             epsilon=0.0, seed=s, model="lda", score_kind="max_prob",
             auroc=0.6 + 0.01 * s, advantage=0.6 + 0.01 * s, accuracy=0.9)
        for s in range(3)
    ]
    path = tmp_path / "results.csv"
    write_results_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("d,n_train,mu,")
    assert ",0.600000,0.600000,0.900000" in text[1]
    back = read_results_csv(str(path))
    assert len(back) == 3
    assert back[0]["model"] == "lda"
    assert back[1]["auroc"] == pytest.approx(0.61)

    bad = tmp_path / "bad.csv"
    bad.write_text("d,mu\n1,0.1\n")
    with pytest.raises(ValidationError) as err:
        read_results_csv(str(bad))
    assert "n_train" in str(err.value)


def test_write_table_formats_and_sorts(tmp_path):
    rows = [
        {"d": 16, "model": "lda", "auroc": 0.1, "n_seeds": 5},
        {"d": np.int64(4), "model": "logistic", "auroc": 0.5, "n_seeds": 3},
        {"d": 4, "model": "lda", "auroc": 2.0 / 3.0, "n_seeds": 5},
    ]
    columns = ("d", "model", "auroc", "n_seeds")
    path = tmp_path / "table.csv"
    # d sorts numerically (4 before 16, unlike a string sort), then model lexically
    write_table(str(path), columns, sorted(rows, key=lambda r: sort_key(r, columns[:2])))
    assert path.read_bytes() == (b"d,model,auroc,n_seeds\n"
                                 b"4,lda,0.666667,5\n"
                                 b"4,logistic,0.500000,3\n"
                                 b"16,lda,0.100000,5\n")
    # rows are written in the order given
    write_table(str(path), columns, rows, float_format=".9g")
    assert path.read_bytes() == (b"d,model,auroc,n_seeds\n"
                                 b"16,lda,0.1,5\n"
                                 b"4,logistic,0.5,3\n"
                                 b"4,lda,0.666666667,5\n")
    write_table(str(path), ("side", "tv_joint", "kind"),
                [{"side": "member", "tv_joint": 2.0 / 3.0, "kind": "max_prob"}],
                float_format=".12g")
    assert path.read_bytes() == b"side,tv_joint,kind\nmember,0.666666666667,max_prob\n"


@settings(max_examples=300, deadline=None)
@given(table_payloads(",".join(RESULT_COLUMNS)))
def test_read_results_csv_raises_only_typed_errors(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "results.csv"
    path.write_bytes(payload)
    try:
        read_results_csv(str(path))
    except MialabError:
        pass
