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
    assert "failed cells" in capsys.readouterr().err


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
    _tiny_results_csv(results)
    _corrupt_results_row(results, 10, "abc")  # auroc
    code = main([command, "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: row 3: bad auroc value 'abc'" in capsys.readouterr().err


def test_train_rejects_non_numeric_dataset_field_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    for row in ("x,0.5,0", "1,abc,0", "1,0.5,abc"):
        data.write_text(f"y,x0,contam\n{row}\n")
        code = main(["train", "--model", "lda", "--data", str(data),
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "error: row 2: non-numeric field" in capsys.readouterr().err


def test_train_rejects_contam_flag_other_than_0_or_1_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    for flag in ("7", "2", "-1"):
        data.write_text(f"y,x0,contam\n-1,0.2,0\n1,0.1,{flag}\n")
        code = main(["train", "--model", "lda", "--data", str(data),
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "error: row 3: contam must be 0 or 1" in capsys.readouterr().err


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
