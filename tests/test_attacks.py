import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.attacks import (
    AttackScores,
    Orientation,
    ScoreKind,
    build_attack_features,
    label_indices,
    model_outputs,
    run_gbm_attack,
    score_entropy,
    score_lda_log_joint,
    score_log_loss,
    score_max_prob,
    threshold_scores,
)
from mialab.datagen import Dataset, GenParams, generate_dataset
from mialab.errors import InsufficientDataError, ValidationError
from mialab.linear_models import LogisticModel, fit_logistic
from mialab.metrics import advantage, auroc, write_table


def test_score_kind_orientations_documented():
    higher = {ScoreKind.MAX_PROB, ScoreKind.LDA_LOG_JOINT, ScoreKind.GBM_PROBS,
              ScoreKind.GBM_LOGITS}
    for kind in ScoreKind:
        expected = (Orientation.HIGHER_IS_MEMBER if kind in higher
                    else Orientation.LOWER_IS_MEMBER)
        assert kind.orientation is expected


def test_max_prob_values():
    assert score_max_prob([0.5, 0.5]) == 0.5
    assert score_max_prob([0.1, 0.9]) == 0.9
    k = 5
    assert score_max_prob([1 / k] * k) == pytest.approx(1 / k)
    with pytest.raises(ValidationError):
        score_max_prob([0.5, 0.2])


def test_entropy_values():
    assert score_entropy([1.0, 0.0]) == 0.0
    assert score_entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)
    expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
    assert score_entropy([0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
    assert score_entropy([0.9, 0.1]) == pytest.approx(0.3251, abs=5e-5)


def test_log_loss_values():
    assert score_log_loss([0.0, 1.0], 1) == 0.0
    assert score_log_loss([0.5, 0.5], 0) == pytest.approx(np.log(2), abs=1e-12)
    p = float(np.exp(-2.0))
    assert score_log_loss([1 - p, p], 1) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValidationError):
        score_log_loss([0.5, 0.5], 2)


def test_lda_log_joint_score():
    assert score_lda_log_joint([-1.0, -3.0]) == -1.0
    base = score_lda_log_joint([-4.2, -1.7])
    assert score_lda_log_joint([-4.2 + 3.0, -1.7 + 3.0]) == pytest.approx(base + 3.0)
    with pytest.raises(ValidationError):
        score_lda_log_joint([np.inf, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0001, 0.9999))
def test_batch_threshold_scores_match_single_sample(p):
    posterior = np.array([1.0 - p, p])
    P = posterior[None, :]
    assert threshold_scores(ScoreKind.MAX_PROB, P)[0] == score_max_prob(posterior)
    assert threshold_scores(ScoreKind.ENTROPY, P)[0] == pytest.approx(
        score_entropy(posterior), abs=1e-15)
    idx = np.array([1])
    assert threshold_scores(ScoreKind.LOG_LOSS, P, idx)[0] == pytest.approx(
        score_log_loss(posterior, 1), abs=1e-15)


def test_entropy_and_max_prob_rank_identically_for_binary():
    # both are monotone in |p - 1/2|, so their AUROCs coincide
    rng = np.random.default_rng(0)
    p_member = rng.random(300)
    p_nonmember = rng.random(300)

    def scores_for(kind):
        member = threshold_scores(kind, np.column_stack([1 - p_member, p_member]))
        nonmember = threshold_scores(kind, np.column_stack([1 - p_nonmember, p_nonmember]))
        return AttackScores(member_scores=member, nonmember_scores=nonmember,
                            kind=kind, orientation=kind.orientation)

    a = auroc(scores_for(ScoreKind.MAX_PROB))
    b = auroc(scores_for(ScoreKind.ENTROPY))
    assert a == b


def test_orientation_flip_preserves_advantage():
    rng = np.random.default_rng(1)
    member = rng.normal(size=50)
    nonmember = rng.normal(size=60) + 0.5
    base = AttackScores(member_scores=member, nonmember_scores=nonmember,
                        kind=ScoreKind.MAX_PROB, orientation=Orientation.HIGHER_IS_MEMBER)
    flipped = AttackScores(member_scores=-member, nonmember_scores=-nonmember,
                           kind=ScoreKind.MAX_PROB, orientation=Orientation.LOWER_IS_MEMBER)
    assert auroc(base) == auroc(flipped)
    assert advantage(auroc(base)) == advantage(auroc(flipped))


def test_label_indices():
    assert np.array_equal(label_indices(np.array([-1, 1, 1, -1])), [0, 1, 1, 0])
    with pytest.raises(ValidationError):
        label_indices(np.array([0, 1]))


def test_build_attack_features_definition():
    row = build_attack_features(np.array([0.7, 0.3]), 1, "probs")
    np.testing.assert_allclose(row, [0.7, 0.3, 0.0, 1.0])
    row = build_attack_features(np.array([-3.0, -1.0]), 0, "logits")
    np.testing.assert_allclose(row, [-3.0, -1.0, 1.0, 0.0])
    with pytest.raises(ValidationError):
        build_attack_features(np.array([0.7, 0.3]), 2, "probs")
    with pytest.raises(ValidationError):
        build_attack_features(np.array([0.7, 0.4]), 0, "probs")


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.integers(0, 1), st.integers(0, 1))
def test_feature_construction_injective(p1, p2, l1, l2):
    a = build_attack_features(np.array([1 - p1, p1]), l1, "probs")
    b = build_attack_features(np.array([1 - p2, p2]), l2, "probs")
    if (p1, l1) != (p2, l2):
        assert not np.array_equal(a, b)


def test_model_outputs_interfaces():
    model = LogisticModel(weights=np.array([2.0]), bias=-1.0, converged=True, iterations=0)
    X = np.array([[0.5], [2.0]])
    probs = model_outputs(model, X, "probs")
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    logits = model_outputs(model, X, "logits")
    np.testing.assert_allclose(logits[:, 0], 0.0)
    np.testing.assert_allclose(logits[:, 1], [0.0, 3.0])
    with pytest.raises(ValidationError):
        model_outputs(model, X, "raw")


class _MemorizingTarget:
    """Returns one-hot posteriors for memorized rows, uniform elsewhere."""

    def __init__(self, features, labels):
        self._keys = {row.tobytes(): int(lab) for row, lab in zip(features, labels)}

    def output_matrix(self, X, interface):
        out = np.full((len(X), 2), 0.5)
        for i, row in enumerate(np.asarray(X)):
            label = self._keys.get(row.tobytes())
            if label is not None:
                out[i] = [1.0, 0.0] if label == -1 else [0.0, 1.0]
        if interface == "logits":
            return np.log(np.maximum(out, 1e-10))
        return out


def _toy_pair(seed, n_train=200, n_test=200, d=2):
    params = GenParams(d=d, n_train=n_train, n_test=n_test, mu=0.2, seed=seed)
    return generate_dataset(params, "train"), generate_dataset(params, "test")


def test_gbm_attack_on_memorizing_target_is_strong():
    member, nonmember = _toy_pair(seed=0)
    target = _MemorizingTarget(member.features, member.labels)
    scores = run_gbm_attack(target, member, nonmember, interface="probs", split_seed=0)
    assert scores.kind is ScoreKind.GBM_PROBS
    assert auroc(scores) >= 0.95


def test_gbm_attack_null_calibration():
    # identical score laws: a fixed target scored on i.i.d. member/nonmember pools
    target = LogisticModel(weights=np.array([0.8, -0.3]), bias=0.1,
                           converged=True, iterations=0)
    values = []
    for seed in range(20):
        member, nonmember = _toy_pair(seed=seed, n_train=1000, n_test=1000)
        scores = run_gbm_attack(target, member, nonmember, interface="probs",
                                split_seed=seed)
        a = auroc(scores)
        values.append(a)
        assert abs(a - 0.5) <= 0.07
    assert abs(np.mean(values) - 0.5) <= 0.02


def test_gbm_attack_insufficient_data():
    member, nonmember = _toy_pair(seed=1, n_train=3, n_test=50)
    target = LogisticModel(weights=np.zeros(2), bias=0.0, converged=True, iterations=0)
    with pytest.raises(InsufficientDataError):
        run_gbm_attack(target, member, nonmember)


def test_gbm_attack_deterministic_in_split_seed():
    member, nonmember = _toy_pair(seed=3, n_train=64, n_test=64)
    train = member
    model = fit_logistic(train)
    a = run_gbm_attack(model, member, nonmember, split_seed=5)
    b = run_gbm_attack(model, member, nonmember, split_seed=5)
    assert a.member_scores.tobytes() == b.member_scores.tobytes()
    assert a.nonmember_scores.tobytes() == b.nonmember_scores.tobytes()


def test_scores_csv(tmp_path):
    # the side,score,kind table that `mialab attack` writes
    rows = [{"side": "member", "score": np.float64(0.25), "kind": ScoreKind.MAX_PROB.value},
            {"side": "nonmember", "score": np.float64(0.5), "kind": ScoreKind.MAX_PROB.value}]
    path = tmp_path / "scores.csv"
    write_table(str(path), ("side", "score", "kind"), rows, float_format=".9g")
    lines = path.read_text().splitlines()
    assert lines[0] == "side,score,kind"
    assert lines[1] == "member,0.25,max_prob"
    assert lines[2] == "nonmember,0.5,max_prob"


def test_attack_scores_validation():
    with pytest.raises(ValidationError):
        AttackScores(member_scores=np.array([]), nonmember_scores=np.array([1.0]),
                     kind=ScoreKind.MAX_PROB, orientation=Orientation.HIGHER_IS_MEMBER)
    with pytest.raises(ValidationError):
        AttackScores(member_scores=np.array([np.nan]), nonmember_scores=np.array([1.0]),
                     kind=ScoreKind.MAX_PROB, orientation=Orientation.HIGHER_IS_MEMBER)
