import json

import numpy as np
import pytest

from mialab.cli import main
from mialab.datagen import read_csv

CONFIG = """\
# mialab sweep config v1
mu_values = 0.1 0.3
d_values = 4
n_train_values = 40
seeds = 0 1
n_test = 200
"""


def test_generate_writes_csv(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = main(["generate", "--d", "16", "--n", "50", "--mu", "0.3",
                 "--w", "0.5", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "wrote 50 rows x 16 columns" in capsys.readouterr().out
    data = read_csv(str(out))
    assert data.features.shape == (50, 16)


def test_generate_contaminated_population(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["generate", "--d", "4", "--n", "4000", "--mu", "0.2",
                 "--epsilon", "0.02", "--tau-mult", "10", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    data = read_csv(str(out))
    assert 0.005 <= data.contaminated_mask.mean() <= 0.05


def test_generate_usage_errors(tmp_path, capsys):
    assert main(["generate", "--n", "50", "--mu", "0.3",
                 "--out", str(tmp_path / "x.csv")]) == 1  # missing --d
    capsys.readouterr()
    assert main(["generate", "--d", "nope", "--n", "50", "--mu", "0.3",
                 "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_generate_validation_error_exit_2(tmp_path, capsys):
    code = main(["generate", "--d", "4", "--n", "50", "--mu", "0.3",
                 "--w", "1.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("d, n", [("99999999999999999999", "10"), ("8", "99999999999999999999")])
def test_generate_size_numpy_refuses_exit_2(tmp_path, capsys, d, n):
    out = tmp_path / "x.csv"
    code = main(["generate", "--d", d, "--n", n, "--mu", "0.1", "--out", str(out)])
    assert code == 2
    assert "Maximum allowed dimension exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_to_write_non_finite_features_exit_2(tmp_path, capsys):
    # contamination at tau_mult 1e308 draws some features beyond the float range
    out = tmp_path / "x.csv"
    code = main(["generate", "--d", "3", "--n", "200", "--mu", "0.1", "--epsilon", "0.5",
                 "--tau-mult", "1e308", "--out", str(out)])
    assert code == 2
    assert "error: 13 features are not finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_command_and_flag(tmp_path, capsys):
    assert main(["explode"]) == 1
    capsys.readouterr()
    assert main(["bounds", "--bogus", "1", "--out", str(tmp_path / "b.csv")]) == 1
    capsys.readouterr()


def test_train_attack_round_trip(tmp_path, capsys):
    member = tmp_path / "member.csv"
    nonmember = tmp_path / "nonmember.csv"
    for path, split in ((member, "train"), (nonmember, "test")):
        assert main(["generate", "--d", "8", "--n", "200", "--mu", "0.4",
                     "--seed", "3", "--split", split, "--out", str(path)]) == 0
    capsys.readouterr()

    model_path = tmp_path / "model.json"
    assert main(["train", "--model", "lda", "--data", str(member),
                 "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "train accuracy:" in out

    scores_path = tmp_path / "scores.csv"
    assert main(["attack", "--model-file", str(model_path),
                 "--member", str(member), "--nonmember", str(nonmember),
                 "--scores", "max_prob", "lda_log_joint", "gbm_probs",
                 "--seed", "0", "--out", str(scores_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("auroc=") == 3
    lines = scores_path.read_text().splitlines()
    assert lines[0] == "side,score,kind"
    kinds = {ln.split(",")[2] for ln in lines[1:]}
    assert kinds == {"max_prob", "lda_log_joint", "gbm_probs"}


def test_attack_rejects_unknown_kind(tmp_path, capsys):
    member = tmp_path / "m.csv"
    main(["generate", "--d", "2", "--n", "30", "--mu", "0.2", "--out", str(member)])
    model_path = tmp_path / "model.json"
    main(["train", "--model", "logistic", "--data", str(member), "--out", str(model_path)])
    capsys.readouterr()
    code = main(["attack", "--model-file", str(model_path), "--member", str(member),
                 "--nonmember", str(member), "--scores", "psychic",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "unknown score kind" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attack", "sweep"])
def test_repeated_score_kind_exit_2(tmp_path, capsys, command):
    # a repeated kind would write every score or result row twice and count each seed twice
    out = tmp_path / "out.csv"
    if command == "attack":
        data, model_path = _trained_model(tmp_path)
        argv = ["attack", "--model-file", str(model_path), "--member", str(data),
                "--nonmember", str(data)]
    else:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(CONFIG)
        argv = ["sweep", "--config", str(cfg), "--summary-out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    code = main([*argv, "--scores", "max_prob", "entropy", "max_prob", "--out", str(out)])
    assert code == 2
    assert "error: --scores repeats the kind 'max_prob'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["lda", "logistic"])
def test_attack_rejects_model_data_dimension_mismatch(tmp_path, capsys, model):
    wide, narrow = tmp_path / "d8.csv", tmp_path / "d4.csv"
    for path, d in ((wide, "8"), (narrow, "4")):
        main(["generate", "--d", d, "--n", "50", "--mu", "0.3", "--out", str(path)])
    model_path = tmp_path / "model.json"
    main(["train", "--model", model, "--data", str(wide), "--out", str(model_path)])
    capsys.readouterr()
    scores = tmp_path / "s.csv"
    for member, nonmember, side in ((narrow, wide, "member"), (wide, narrow, "nonmember")):
        code = main(["attack", "--model-file", str(model_path), "--member", str(member),
                     "--nonmember", str(nonmember), "--scores", "max_prob",
                     "--out", str(scores)])
        assert code == 2
        assert f"error: model has d=8 but {side} data has d=4" in capsys.readouterr().err
        assert not scores.exists()


def _trained_model(tmp_path, model="lda"):
    data, model_path = tmp_path / "data.csv", tmp_path / "model.json"
    main(["generate", "--d", "4", "--n", "40", "--mu", "0.3", "--out", str(data)])
    main(["train", "--model", model, "--data", str(data), "--out", str(model_path)])
    return data, model_path


def test_attack_computes_lda_outputs_once_per_dataset(tmp_path, capsys, lda_log_joints_calls):
    data, model_path = _trained_model(tmp_path)
    lda_log_joints_calls.clear()  # training computes its own accuracy
    code = main(["attack", "--model-file", str(model_path), "--member", str(data),
                 "--nonmember", str(data), "--scores", "max_prob", "entropy", "log_loss",
                 "lda_log_joint", "gbm_probs", "gbm_logits", "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert capsys.readouterr().out.count("auroc=") == 6
    # loading the model scores its two means once; each dataset is scored once
    assert lda_log_joints_calls == [2, 40, 40]


def test_attack_rejects_lda_log_joint_on_logistic_before_scoring_exit_2(tmp_path, capsys):
    data, model_path = _trained_model(tmp_path, "logistic")
    scores = tmp_path / "s.csv"
    capsys.readouterr()
    code = main(["attack", "--model-file", str(model_path), "--member", str(data),
                 "--nonmember", str(data), "--scores", "max_prob", "gbm_probs", "lda_log_joint",
                 "--out", str(scores)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: lda_log_joint requires an lda model" in captured.err
    assert not scores.exists()


def _set(field, value):
    return lambda payload: payload.__setitem__(field, value)


def _set_chol(i, j, value):
    return lambda payload: payload["chol_lower"][i].__setitem__(j, value)


# name -> (model kind, corruption of its JSON payload, expected message)
_MALFORMED_MODELS = {
    "chol_2x2_for_d4": ("lda", _set("chol_lower", [[1.0, 0.0], [0.0, 1.0]]), "d x d chol_lower"),
    "chol_string": ("lda", _set("chol_lower", "abc"), "malformed model file"),
    "chol_negative_diagonal": ("lda", _set_chol(0, 0, -1.0), "positive diagonal"),
    "chol_upper_entry": ("lda", _set_chol(0, 1, 0.5), "lower-triangular"),
    "chol_nan": ("lda", _set_chol(1, 0, float("nan")), "must be finite"),
    # positive but so small that the log-joints overflow
    "chol_1e-300_I": ("lda", _set("chol_lower", (1e-300 * np.eye(4)).tolist()),
                      "malformed model file: log-joints"),
    "chol_1e-160_I": ("lda", _set("chol_lower", (1e-160 * np.eye(4)).tolist()),
                      "malformed model file: log-joints"),
    # finite means whose midpoint overflows
    "means_near_float_max": ("lda", lambda payload: payload.update(
        mean_pos=[1.7e308] * 4, mean_neg=[1.7e308] * 4),
        "malformed model file: rows are not finite once centred"),
    "prior_above_1": ("lda", _set("prior_pos", 1.5), "prior_pos must lie in (0, 1)"),
    "prior_0": ("lda", _set("prior_pos", 0.0), "prior_pos must lie in (0, 1)"),
    "mean_length": ("lda", _set("mean_neg", [0.0, 1.0]), "means of one length d"),
    "weights_matrix": ("logistic", _set("weights", [[1.0, 2.0], [3.0, 4.0]]),
                       "malformed model file: each entry of weights must be a JSON number"),
    "weights_empty": ("logistic", _set("weights", []), "nonempty finite vector"),
    "bias_string": ("logistic", _set("bias", "x"), "malformed model file"),
    # bool("false") is True and int(3.7) is 3: no conversion may hide a wrong JSON type
    "converged_string": ("logistic", _set("converged", "false"),
                         "malformed model file: converged must be a JSON boolean"),
    "iterations_float": ("logistic", _set("iterations", 3.7),
                         "malformed model file: iterations must be a nonnegative JSON integer"),
    "iterations_negative": ("logistic", _set("iterations", -1),
                            "malformed model file: iterations must be a nonnegative JSON"),
    # float("0.1") and float(True) convert, so every number field checks its JSON type
    "bias_numeric_string": ("logistic", _set("bias", "0.1"),
                            "malformed model file: bias must be a JSON number, got '0.1'"),
    "bias_true": ("logistic", _set("bias", True),
                  "malformed model file: bias must be a JSON number, got True"),
    "weights_string": ("logistic", _set("weights", "0.1"),
                       "malformed model file: weights must be a list of JSON numbers, got str"),
    "weights_numeric_strings": ("logistic", _set("weights", ["0.1", "0.2", "0.3", "0.4"]),
                                "malformed model file: each entry of weights must be a JSON"),
    "prior_numeric_string": ("lda", _set("prior_pos", "0.5"),
                             "malformed model file: prior_pos must be a JSON number"),
    "mean_pos_numeric_strings": ("lda", _set("mean_pos", ["0.1", "0.2", "0.3", "0.4"]),
                                 "malformed model file: each entry of mean_pos must be a JSON"),
    "mean_neg_false_entry": ("lda", lambda payload: payload["mean_neg"].__setitem__(0, False),
                             "malformed model file: each entry of mean_neg must be a JSON"),
    "shrinkage_true": ("lda", _set("shrinkage_intensity", True),
                       "malformed model file: shrinkage_intensity must be a JSON number"),
    # fit_lda's intensity is a ratio in [0, 1]; a file's must be one too
    **{f"shrinkage_{name}": ("lda", _set("shrinkage_intensity", value),
                             "malformed model file: shrinkage_intensity must lie in [0, 1]")
       for name, value in (("nan", float("nan")), ("negative", -7.0), ("above_1", 3.5))},
    "chol_row_numeric_strings": ("lda", lambda payload: payload["chol_lower"].__setitem__(
        1, ["0.1", "1.0", "0.0", "0.0"]),
        "malformed model file: each entry of row 1 of chol_lower must be a JSON number"),
    "chol_null_entry": ("lda", _set_chol(1, 1, None),
                        "malformed model file: each entry of row 1 of chol_lower must be a JSON number, got None"),
    # log_det must be a JSON number that agrees with the value chol_lower gives
    "log_det_string": ("lda", _set("log_det", "abc"),
                       "malformed model file: log_det must be a JSON number, got 'abc'"),
    "log_det_missing": ("lda", lambda payload: payload.pop("log_det"),
                        "malformed model file: 'log_det'"),
    "log_det_mismatch": ("lda", lambda payload: payload.update(
        log_det=payload["log_det"] * (1.0 + 1e-8) + 1e-8),
        "malformed model file: log_det "),
    # a key the model kind does not define
    "lda_unknown_key": ("lda", _set("weights", [0.1] * 4),
                        "malformed model file: keys ['weights'] are not defined for kind 'lda'"),
    "logistic_unknown_key": ("logistic", _set("log_det", 0.0),
                             "malformed model file: keys ['log_det'] are not defined for "
                             "kind 'logistic'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_MODELS))
def test_attack_rejects_malformed_model_file_exit_2(tmp_path, capsys, recwarn, case):
    model, corrupt, message = _MALFORMED_MODELS[case]
    data, model_path = _trained_model(tmp_path, model)
    payload = json.loads(model_path.read_text())
    corrupt(payload)
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["attack", "--model-file", str(model_path), "--member", str(data),
                 "--nonmember", str(data), "--scores", "max_prob",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_with_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG)
    results = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    code = main(["sweep", "--config", str(cfg), "--scores", "max_prob",
                 "--out", str(results), "--summary-out", str(summary)])
    assert code == 0
    capsys.readouterr()
    lines = results.read_text().splitlines()
    # 2 cells x 2 seeds x 2 models, plus header
    assert len(lines) == 1 + 8
    assert lines[0].startswith("d,n_train,mu,")
    assert summary.exists()


def test_sweep_partial_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# mialab sweep config v1\n"
        "mu_values = 0.1\nd_values = 2\nn_train_values = 4\n"
        "w_values = 0.01\nseeds = 0 1 2 3 4 5 6 7\nn_test = 50\n"
    )
    code = main(["sweep", "--config", str(cfg), "--scores", "max_prob",
                 "--out", str(tmp_path / "r.csv"),
                 "--summary-out", str(tmp_path / "s.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "failed cells" in err
    assert "cell failed: {'d': 2, 'n_train': 4, 'mu': 0.1, 'sigma': 0.15, 'sigma_noise': 1.0, " \
        "'w': 0.01, 'epsilon': 0.0, 'seed': " in err


def test_sweep_cell_whose_class_means_overflow_fails_alone(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG.replace("mu_values = 0.1 0.3", "mu_values = 0.3 1e308")
                   .replace("seeds = 0 1", "seeds = 0"))
    results = tmp_path / "r.csv"
    code = main(["sweep", "--config", str(cfg), "--scores", "max_prob", "--workers", "1",
                 "--out", str(results), "--summary-out", str(tmp_path / "s.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "'mu': 1e+308" in err and "'error': 'DataError: cell " in err
    assert "logistic loss or gradient is not finite" in err and "failed cells: 1" in err
    rows = results.read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.split(",")[2] == "0.300000" for row in rows)


def test_sweep_rejects_repeated_axis_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG.replace("seeds = 0 1", "seeds = 3 3"))
    results = tmp_path / "r.csv"
    code = main(["sweep", "--config", str(cfg), "--scores", "max_prob",
                 "--out", str(results), "--summary-out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "error: seeds repeats the value 3" in capsys.readouterr().err
    assert not results.exists()


def test_bounds_certification(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--trials", "200", "--x", "6", "--y", "4",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert "violations: 0" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == ("tv_joint,tv_marginal,exp_cond_tv,kl_x,exp_kl_cond,"
                        "lower,upper,pinsker_upper")
    assert len(lines) == 201


@pytest.mark.parametrize("command", ["bounds", "attack"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    argv = ["bounds", "--trials", "5"]
    if command == "attack":
        data, model_path = _trained_model(tmp_path)
        argv = ["attack", "--model-file", str(model_path), "--member", str(data),
                "--nonmember", str(data), "--scores", "gbm_probs"]
    capsys.readouterr()
    code = main([*argv, "--seed", "-1", "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, draws", [
    ("generate", True), ("attack", True), ("sweep", True), ("bounds", True),
    ("train", False), ("plot", False), ("report", False)])
def test_seed_is_an_option_only_of_commands_that_draw(tmp_path, capsys, command, draws):
    data, model_path = _trained_model(tmp_path)
    results, cfg = tmp_path / "results.csv", tmp_path / "sweep.cfg"
    _tiny_results_csv(results)
    cfg.write_text(CONFIG)
    argv = [command, *{
        "generate": ["--d", "4", "--n", "20", "--mu", "0.3"],
        "attack": ["--model-file", str(model_path), "--member", str(data),
                   "--nonmember", str(data)],
        "sweep": ["--config", str(cfg), "--scores", "max_prob",
                  "--summary-out", str(tmp_path / "s.csv")],
        "bounds": ["--trials", "5"],
        "train": ["--model", "lda", "--data", str(data)],
        "plot": ["--results", str(results)],
        "report": ["--results", str(results)],
    }[command], "--out", str(tmp_path / "out")]
    capsys.readouterr()
    code = main([*argv, "--seed", "1"])
    if draws:
        assert code == 0
    else:
        assert code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(argv) == 0  # the same command without --seed runs


@pytest.mark.parametrize("x, y", [("99999999999999999999", "2"), ("2", "99999999999999999999")])
def test_bounds_axis_numpy_refuses_exit_2(tmp_path, capsys, x, y):
    # only sizes past numpy's index range, which fail before allocating
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--x", x, "--y", y, "--trials", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: cannot allocate 2 tables of {x} x {y}: " in err
    assert "Maximum allowed dimension exceeded" in err
    assert not out.exists()


def test_bounds_prints_each_check_after_the_violation_total(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--trials", "1000", "--x", "2", "--y", "2", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "violations: 6",
        "check 1 sandwich: triggered 1000, violations 0, min slack 0.000391089",
        "check 2 tv_joint_le_pinsker: triggered 1000, violations 0, min slack 0.0181294",
        "check 3 upper_le_pinsker: triggered 1000, violations 0, min slack 0.00259734",
        "check 4 dpi_softmax: triggered 1000, violations 0, min slack 0",
        "check 5 scalar_dominance: triggered 257, violations 6, min slack -0.0353435",
    ]
    assert len(out.read_text().splitlines()) == 1001


def test_bounds_zero_trials_and_bad_sizes(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--trials", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == []
    capsys.readouterr()
    assert main(["bounds", "--trials", "10", "--x", "1", "--out", str(out)]) == 2
    capsys.readouterr()


def _tiny_results_csv(path):
    rows = ["d,n_train,mu,sigma,sigma_noise,w,epsilon,seed,model,score_kind,auroc,advantage,accuracy"]
    for d in (16, 64, 256):
        for mu in (0.1, 0.2, 0.3):
            for seed in (0, 1):
                for model, kind, adv in (("logistic", "max_prob", 0.55),
                                         ("lda", "max_prob", 0.6),
                                         ("lda", "lda_log_joint", 0.7)):
                    a = adv + 0.01 * seed + 0.1 * mu
                    acc = 0.7 + 0.1 * mu - (0.0002 * d)
                    rows.append(f"{d},50,{mu},0.15,1.0,0.5,0.0,{seed},{model},{kind},"
                                f"{a:.6f},{a:.6f},{acc:.6f}")
    path.write_text("\n".join(rows) + "\n")


def test_plot_emits_one_svg_per_dimension(tmp_path, capsys):
    results = tmp_path / "results.csv"
    _tiny_results_csv(results)
    out_dir = tmp_path / "plots"
    code = main(["plot", "--results", str(results), "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    files = sorted(p.name for p in out_dir.glob("*.svg"))
    assert files == ["mu_trends_d16.svg", "mu_trends_d256.svg", "mu_trends_d64.svg"]
    text = (out_dir / "mu_trends_d16.svg").read_text()
    assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")
    assert "stroke-dasharray" in text  # the 0.5 reference line

    # byte-identical on rerun
    first = (out_dir / "mu_trends_d64.svg").read_bytes()
    assert main(["plot", "--results", str(results), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "mu_trends_d64.svg").read_bytes() == first


def test_plot_single_cell(tmp_path, capsys):
    results = tmp_path / "one.csv"
    results.write_text(
        "d,n_train,mu,sigma,sigma_noise,w,epsilon,seed,model,score_kind,auroc,advantage,accuracy\n"
        "16,50,0.1,0.15,1.0,0.5,0.0,0,lda,max_prob,0.6,0.6,0.9\n"
    )
    out_dir = tmp_path / "plots"
    assert main(["plot", "--results", str(results), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "mu_trends_d16.svg").exists()


@pytest.mark.parametrize("axis, column, value", [("epsilon", 6, "0.05"), ("w", 5, "0.3")])
def test_plot_rejects_mixed_settings_exit_2(tmp_path, capsys, axis, column, value):
    # a criterion-8-style sweep puts clean and contaminated cells in one file
    results = tmp_path / "results.csv"
    _tiny_results_csv(results)
    lines = results.read_text().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        parts[column] = value
        lines.append(",".join(parts))
    results.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "plots"
    code = main(["plot", "--results", str(results), "--out", str(out_dir)])
    assert code == 2
    assert f"error: d=16: results mix {axis} values" in capsys.readouterr().err
    assert not out_dir.exists()


def test_plot_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("d,mu\n16,0.1\n")
    code = main(["plot", "--results", str(bad), "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing columns" in err


def _corrupt_results_row(path, field, value):
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    if value is None:
        del parts[field]
    else:
        parts[field] = value
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["plot", "report"])
def test_results_row_with_wrong_field_count_exit_2(tmp_path, capsys, command):
    results = tmp_path / "results.csv"
    _tiny_results_csv(results)
    _corrupt_results_row(results, -1, None)  # truncated row
    code = main([command, "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: row 3: expected 13 fields, got 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plot", "report"])
def test_results_row_with_non_numeric_field_exit_2(tmp_path, capsys, command):
    results = tmp_path / "results.csv"
    # mialab never writes nan or inf, so a non-finite float is malformed too
    for value in ("abc", "nan", "inf"):
        _tiny_results_csv(results)
        _corrupt_results_row(results, 10, value)  # auroc
        code = main([command, "--results", str(results), "--out", str(tmp_path / "out")])
        assert code == 2, value
        assert f"error: row 3: bad auroc value '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plot", "report"])
def test_results_row_with_unknown_model_or_score_kind_exit_2(tmp_path, capsys, command):
    results = tmp_path / "results.csv"
    # l<da&x would land unescaped in an SVG legend; max_pr0b in a report row
    for field, column, value in ((8, "model", "l<da&x"), (8, "model", "gbm"),
                                 (9, "score_kind", "max_pr0b"), (9, "score_kind", "")):
        _tiny_results_csv(results)
        _corrupt_results_row(results, field, value)
        out = tmp_path / f"out_{field}_{len(value)}"
        code = main([command, "--results", str(results), "--out", str(out)])
        assert code == 2, value
        assert f"error: row 3: bad {column} value '{value}'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["plot", "report"])
def test_results_with_repeated_row_exit_2(tmp_path, capsys, command):
    header = "d,n_train,mu,sigma,sigma_noise,w,epsilon,seed,model,score_kind,auroc,advantage,accuracy"
    seeds = ["4,40,0.1,0.15,1.0,0.5,0.0,0,lda,max_prob,0.600000,0.600000,0.700000",
             "4,40,0.1,0.15,1.0,0.5,0.0,1,lda,max_prob,0.500000,0.500000,0.700000"]
    results = tmp_path / "results.csv"
    results.write_text("\n".join([header, *seeds]) + "\n")
    assert main([command, "--results", str(results), "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    # the copy would count as a third seed: n_seeds 3, mean 0.5333 instead of 0.55
    results.write_text("\n".join([header, *seeds, seeds[1]]) + "\n")
    out = tmp_path / "out"
    code = main([command, "--results", str(results), "--out", str(out)])
    assert code == 2
    assert ("error: row 4: repeats the cell, seed, model and score_kind of row 3"
            in capsys.readouterr().err)
    assert not out.exists()


def test_train_rejects_non_numeric_dataset_field_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    for row in ("x,0.5,0", "1,abc,0", "1,0.5,abc"):
        data.write_text(f"y,x0,contam\n{row}\n")
        code = main(["train", "--model", "lda", "--data", str(data),
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "error: row 2: non-numeric field" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_train_rejects_tol_that_is_not_finite_and_positive_exit_2(tmp_path, capsys, tol):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    main(["generate", "--d", "4", "--n", "40", "--mu", "0.3", "--out", str(data)])
    capsys.readouterr()
    code = main(["train", "--model", "logistic", "--data", str(data), "--tol", tol,
                 "--out", str(model)])
    assert code == 2
    assert f"error: tol must be finite and > 0, got {float(tol)!r}" in capsys.readouterr().err
    assert not model.exists()


def test_train_lda_on_features_whose_covariance_overflows_exit_2(tmp_path, capsys, recwarn):
    # contamination at tau_mult 1e308 writes finite features near the float limit
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["generate", "--d", "3", "--n", "5", "--mu", "0.1", "--epsilon", "0.5",
                 "--tau-mult", "1e308", "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--model", "lda", "--data", str(data), "--out", str(model)])
    assert code == 2
    assert "error: shrunk covariance is not finite" in capsys.readouterr().err
    assert not model.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_train_logistic_on_features_whose_loss_overflows_exit_2(tmp_path, capsys, recwarn):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["generate", "--d", "3", "--n", "5", "--mu", "0.1", "--epsilon", "0.5",
                 "--tau-mult", "1e308", "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--model", "logistic", "--data", str(data), "--out", str(model)])
    assert code == 2
    assert "error: logistic loss or gradient is not finite" in capsys.readouterr().err
    assert not model.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("model", ["lda", "logistic"])
def test_attack_rejects_non_finite_feature_exit_2(tmp_path, capsys, model):
    data, model_path = _trained_model(tmp_path, model)
    lines = data.read_text().splitlines()
    nonmember = tmp_path / "nonmember.csv"
    for value in ("nan", "inf", "-inf"):
        fields = lines[2].split(",")
        fields[2] = value  # x1 of row 3
        nonmember.write_text("\n".join([*lines[:2], ",".join(fields), *lines[3:]]) + "\n")
        capsys.readouterr()
        code = main(["attack", "--model-file", str(model_path), "--member", str(data),
                     "--nonmember", str(nonmember), "--scores", "max_prob",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2, value
        assert "error: row 3: non-finite feature" in capsys.readouterr().err


def test_train_rejects_contam_flag_other_than_0_or_1_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    for flag in ("7", "2", "-1"):
        data.write_text(f"y,x0,contam\n-1,0.2,0\n1,0.1,{flag}\n")
        code = main(["train", "--model", "lda", "--data", str(data),
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "error: row 3: contam must be 0 or 1" in capsys.readouterr().err


def test_every_file_reader_rejects_undecodable_bytes_exit_2(tmp_path, capsys):
    data, model_path, binary = tmp_path / "d.csv", tmp_path / "model.json", tmp_path / "bin"
    main(["generate", "--d", "2", "--n", "30", "--mu", "0.2", "--out", str(data)])
    main(["train", "--model", "lda", "--data", str(data), "--out", str(model_path)])
    binary.write_bytes(b"\x80")
    out = str(tmp_path / "out")
    for argv in (["train", "--model", "lda", "--data", str(binary), "--out", out],
                 ["attack", "--model-file", str(binary), "--member", str(data),
                  "--nonmember", str(data), "--out", out],
                 ["attack", "--model-file", str(model_path), "--member", str(data),
                  "--nonmember", str(binary), "--out", out],
                 ["sweep", "--config", str(binary), "--out", out],
                 ["report", "--results", str(binary), "--out", out],
                 ["plot", "--results", str(binary), "--out", out]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "is not a text file" in capsys.readouterr().err


def test_report_round_trip(tmp_path, capsys):
    results = tmp_path / "results.csv"
    _tiny_results_csv(results)
    out = tmp_path / "pu.csv"
    assert main(["report", "--results", str(results), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].endswith("utility,advantage")
    assert len(lines) == 1 + 3 * 3 * 3  # d x mu x (model,kind)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--workers" in out


def test_help_shows_standard_defaults(capsys):
    assert main(["generate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "0.15" in out and "1.0" in out and "0.5" in out
    assert main(["bounds", "--help"]) == 0
    out = capsys.readouterr().out
    assert "1000" in out and "default 6" in out and "default 4" in out


def test_sweep_with_gbm_scores(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# mialab sweep config v1\n"
        "mu_values = 0.3\nd_values = 4\nn_train_values = 60\n"
        "seeds = 0\nn_test = 120\n"
    )
    results = tmp_path / "results.csv"
    code = main(["sweep", "--config", str(cfg), "--scores", "gbm_probs",
                 "--out", str(results), "--summary-out", str(tmp_path / "s.csv")])
    assert code == 0
    capsys.readouterr()
    kinds = {line.split(",")[9] for line in results.read_text().splitlines()[1:]}
    assert kinds == {"gbm_probs"}
