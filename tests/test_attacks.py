import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.attacks import (
    AttackScores,
    Orientation,
    ScoreKind,
    TargetOutputs,
    _attack_matrix,
    label_indices,
    membership_scores,
    model_outputs,
    run_gbm_attack,
    threshold_scores,
)
from mialab.datagen import Dataset, GenParams, generate_dataset
from mialab.errors import InsufficientDataError, ValidationError
from mialab.linear_models import (
    LogisticModel,
    fit_lda,
    fit_logistic,
    lda_log_joints,
    softmax_pairs,
)
from mialab.metrics import advantage, auroc, write_table

from _reference_gbm import per_feature_boost, per_row_predict


def test_score_kind_orientations_documented():
    higher = {ScoreKind.MAX_PROB, ScoreKind.LDA_LOG_JOINT, ScoreKind.GBM_PROBS,
              ScoreKind.GBM_LOGITS}
    for kind in ScoreKind:
        expected = (Orientation.HIGHER_IS_MEMBER if kind in higher
                    else Orientation.LOWER_IS_MEMBER)
        assert kind.orientation is expected


def _one_row(probs=(0.5, 0.5), label_idx=1, logits=None):
    """One-row target outputs; given logits stand for an LDA target's log-joints."""
    probs = np.array([probs], dtype=np.float64)
    logits = np.zeros_like(probs) if logits is None else np.array([logits], dtype=np.float64)
    return TargetOutputs(probs, logits, np.array([label_idx]))


def _score(kind, **row):
    out = _one_row(**row)
    return float(membership_scores(kind, out, out).member_scores[0])


def test_max_prob_values():
    assert _score(ScoreKind.MAX_PROB, probs=[0.5, 0.5]) == 0.5
    assert _score(ScoreKind.MAX_PROB, probs=[0.1, 0.9]) == 0.9
    k = 5
    assert _score(ScoreKind.MAX_PROB, probs=[1 / k] * k) == pytest.approx(1 / k)


def test_entropy_values():
    assert _score(ScoreKind.ENTROPY, probs=[1.0, 0.0]) == 0.0
    assert _score(ScoreKind.ENTROPY, probs=[0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)
    expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
    assert _score(ScoreKind.ENTROPY, probs=[0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
    assert _score(ScoreKind.ENTROPY, probs=[0.9, 0.1]) == pytest.approx(0.3251, abs=5e-5)


def test_log_loss_values():
    assert _score(ScoreKind.LOG_LOSS, probs=[0.0, 1.0], label_idx=1) == 0.0
    assert _score(ScoreKind.LOG_LOSS, probs=[0.5, 0.5], label_idx=0) == pytest.approx(
        np.log(2), abs=1e-12)
    p = float(np.exp(-2.0))
    assert _score(ScoreKind.LOG_LOSS, probs=[1 - p, p], label_idx=1) == pytest.approx(
        2.0, abs=1e-12)


def test_lda_log_joint_score():
    assert _score(ScoreKind.LDA_LOG_JOINT, logits=[-1.0, -3.0]) == -1.0
    base = _score(ScoreKind.LDA_LOG_JOINT, logits=[-4.2, -1.7])
    assert _score(ScoreKind.LDA_LOG_JOINT, logits=[-4.2 + 3.0, -1.7 + 3.0]) == pytest.approx(
        base + 3.0)
    with pytest.raises(ValidationError):
        _score(ScoreKind.LDA_LOG_JOINT, logits=[np.inf, 0.0])


def test_score_kind_applies_to_targets():
    # a discriminative target's logits are not log-joints
    logistic = LogisticModel(weights=np.zeros(2), bias=0.0, converged=True, iterations=0)
    lda = fit_lda(_toy_pair(seed=0, n_train=20, n_test=2)[0])
    for kind in ScoreKind:
        assert kind.applies_to(lda)
        assert kind.applies_to(logistic) is (kind is not ScoreKind.LDA_LOG_JOINT)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0001, 0.9999), min_size=1, max_size=8))
def test_batch_threshold_scores_match_single_sample(ps):
    # every row of a batch scores as it does alone, and as its closed form
    p = np.array(ps)
    batch = TargetOutputs(np.column_stack([1 - p, p]), np.zeros((p.size, 2)),
                          np.ones(p.size, dtype=np.intp))
    closed_forms = {
        ScoreKind.MAX_PROB: np.maximum(p, 1 - p),
        ScoreKind.ENTROPY: -(p * np.log(p) + (1 - p) * np.log(1 - p)),
        ScoreKind.LOG_LOSS: -np.log(p),
    }
    for kind, expected in closed_forms.items():
        scores = membership_scores(kind, batch, batch).member_scores
        singles = [_score(kind, probs=[1 - q, q], label_idx=1) for q in ps]
        assert scores.tolist() == singles
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=1e-15)


def test_two_column_scores_equal_the_row_reduction_form():
    rng = np.random.default_rng(13)
    p = rng.random(400)
    p[:40] = [0.0, 1.0, -0.0, 0.5, 1e-300, 1.0 - 1e-16, 5e-324, 0.25, 0.75, 1e-17] * 4
    P = np.column_stack([1.0 - p, p])
    P[::7] = P[::7, ::-1]
    P[:4, 0] = [0.0, -0.0, 0.0, -0.0]
    assert threshold_scores(ScoreKind.MAX_PROB, P).tobytes() == P.max(axis=1).tobytes()
    terms = np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    assert threshold_scores(ScoreKind.ENTROPY, P).tobytes() == (-terms.sum(axis=1)).tobytes()


def test_entropy_and_max_prob_rank_identically_for_binary():
    # both are monotone in |p - 1/2|, so their AUROCs coincide
    rng = np.random.default_rng(0)
    p_member = rng.random(300)
    p_nonmember = rng.random(300)

    def scores_for(kind):
        member = threshold_scores(kind, np.column_stack([1 - p_member, p_member]))
        nonmember = threshold_scores(kind, np.column_stack([1 - p_nonmember, p_nonmember]))
        return AttackScores(member_scores=member, nonmember_scores=nonmember, kind=kind)

    a = auroc(scores_for(ScoreKind.MAX_PROB))
    b = auroc(scores_for(ScoreKind.ENTROPY))
    assert a == b


def test_orientation_flip_preserves_advantage():
    rng = np.random.default_rng(1)
    member = rng.normal(size=50)
    nonmember = rng.normal(size=60) + 0.5
    base = AttackScores(member_scores=member, nonmember_scores=nonmember,
                        kind=ScoreKind.MAX_PROB)
    # negated scores under a lower-is-member kind rank the pairs as the base does
    flipped = AttackScores(member_scores=-member, nonmember_scores=-nonmember,
                           kind=ScoreKind.LOG_LOSS)
    assert auroc(base) == auroc(flipped)
    assert advantage(auroc(base)) == advantage(auroc(flipped))


def test_label_indices():
    assert np.array_equal(label_indices(np.array([-1, 1, 1, -1])), [0, 1, 1, 0])
    with pytest.raises(ValidationError):
        label_indices(np.array([0, 1]))


def test_build_attack_features_definition():
    # attack rows are [output vector || one-hot(true label)] on the kind's interface
    out = _one_row(probs=[0.7, 0.3], label_idx=1, logits=[-3.0, -1.0])
    np.testing.assert_allclose(_attack_matrix(out, ScoreKind.GBM_PROBS), [[0.7, 0.3, 0.0, 1.0]])
    out = _one_row(probs=[0.2, 0.8], label_idx=0, logits=[-3.0, -1.0])
    np.testing.assert_allclose(_attack_matrix(out, ScoreKind.GBM_LOGITS), [[-3.0, -1.0, 1.0, 0.0]])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.integers(0, 1), st.integers(0, 1))
def test_feature_construction_injective(p1, p2, l1, l2):
    a = _attack_matrix(_one_row(probs=[1 - p1, p1], label_idx=l1), ScoreKind.GBM_PROBS)
    b = _attack_matrix(_one_row(probs=[1 - p2, p2], label_idx=l2), ScoreKind.GBM_PROBS)
    if (p1, l1) != (p2, l2):
        assert not np.array_equal(a, b)


def test_model_outputs_interfaces():
    model = LogisticModel(weights=np.array([2.0]), bias=-1.0, converged=True, iterations=0)
    data = Dataset(features=np.array([[0.5], [2.0]]), labels=np.array([-1, 1]),
                   contaminated_mask=np.zeros(2, dtype=bool))
    out = model_outputs(model, data)
    np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.logits[:, 0], 0.0)
    np.testing.assert_allclose(out.logits[:, 1], [0.0, 3.0])
    assert out.label_idx.tolist() == [0, 1]
    member, nonmember = _toy_pair(seed=2, n_train=40, n_test=40, d=3)
    lda = fit_lda(member)
    out = model_outputs(lda, nonmember)
    assert out.logits.tobytes() == lda_log_joints(lda, nonmember.features).tobytes()
    assert out.probs.tobytes() == softmax_pairs(out.logits).tobytes()
    with pytest.raises(ValidationError):
        model_outputs(object(), data)
    with pytest.raises(ValidationError):
        run_gbm_attack(model, data, data, interface="raw")


def _memorizing_outputs(memorized: Dataset, data: Dataset) -> TargetOutputs:
    """A target's outputs on ``data``: one-hot posteriors on memorized rows, uniform elsewhere."""
    keys = {row.tobytes(): int(lab) for row, lab in zip(memorized.features, memorized.labels)}
    probs = np.full((data.n, 2), 0.5)
    for i, row in enumerate(data.features):
        label = keys.get(row.tobytes())
        if label is not None:
            probs[i] = [1.0, 0.0] if label == -1 else [0.0, 1.0]
    return TargetOutputs(probs, np.log(np.maximum(probs, 1e-10)), label_indices(data.labels))


def _toy_pair(seed, n_train=200, n_test=200, d=2):
    params = GenParams(d=d, n_train=n_train, n_test=n_test, mu=0.2, seed=seed)
    return generate_dataset(params, "train"), generate_dataset(params, "test")


def test_gbm_attack_on_memorizing_target_is_strong():
    member, nonmember = _toy_pair(seed=0)
    scores = membership_scores(ScoreKind.GBM_PROBS, _memorizing_outputs(member, member),
                               _memorizing_outputs(member, nonmember), seed=0)
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


@pytest.mark.parametrize("interface", ["probs", "logits"])
@pytest.mark.parametrize("fit", [fit_logistic, fit_lda])
def test_gbm_attack_matches_per_feature_engine(monkeypatch, fit, interface):
    import mialab.attacks as attacks

    member, nonmember = _toy_pair(seed=4, n_train=150, n_test=150, d=4)
    target = fit(member)
    scores = run_gbm_attack(target, member, nonmember, interface=interface, split_seed=2)

    def reference_fit(X, y, n_estimators, max_depth, learning_rate):
        base, trees = per_feature_boost(X, y, n_estimators, max_depth, learning_rate)
        return base, trees, learning_rate

    monkeypatch.setattr(attacks, "fit_gbm", reference_fit)
    monkeypatch.setattr(attacks, "gbm_predict_matrix",
                        lambda model, rows: per_row_predict(*model, rows))
    oracle = run_gbm_attack(target, member, nonmember, interface=interface, split_seed=2)
    assert scores.member_scores.tobytes() == oracle.member_scores.tobytes()
    assert scores.nonmember_scores.tobytes() == oracle.nonmember_scores.tobytes()


def test_gbm_attack_deterministic_in_split_seed():
    member, nonmember = _toy_pair(seed=3, n_train=64, n_test=64)
    train = member
    model = fit_logistic(train)
    a = run_gbm_attack(model, member, nonmember, split_seed=5)
    b = run_gbm_attack(model, member, nonmember, split_seed=5)
    assert a.member_scores.tobytes() == b.member_scores.tobytes()
    assert a.nonmember_scores.tobytes() == b.nonmember_scores.tobytes()


def test_gbm_split_draws_from_spawn_key_3(monkeypatch):
    import mialab.attacks as attacks

    member, nonmember = _toy_pair(seed=6, n_train=30, n_test=50)
    model = fit_logistic(member)
    seen = []
    monkeypatch.setattr(attacks, "fit_gbm", lambda X, y, **_: seen.append(X))
    monkeypatch.setattr(attacks, "gbm_predict_matrix",
                        lambda _, rows: seen.append(rows) or np.full(len(rows), 0.5))
    run_gbm_attack(model, member, nonmember, interface="probs", split_seed=9)

    # the downsampling and the 50/50 split, drawn from a hand-built stream
    rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(3,)))
    halves = []
    for data in (member, nonmember):
        rows = _attack_matrix(model_outputs(model, data), ScoreKind.GBM_PROBS)
        keep = np.sort(rng.permutation(len(rows))[:30])
        rows = rows[keep][rng.permutation(30)]
        halves.append((rows[:15], rows[15:]))
    (train_m, eval_m), (train_n, eval_n) = halves
    assert seen[0].tobytes() == np.vstack([train_m, train_n]).tobytes()
    assert seen[1].tobytes() == np.vstack([eval_m, eval_n]).tobytes()


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
                     kind=ScoreKind.MAX_PROB)
    with pytest.raises(ValidationError):
        AttackScores(member_scores=np.array([np.nan]), nonmember_scores=np.array([1.0]),
                     kind=ScoreKind.MAX_PROB)
