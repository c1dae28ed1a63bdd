"""Run a fixed list of ``mialab`` CLI commands and write a SHA-256 manifest of what they produce.

Usage: python tools/cli_digests.py OUTDIR

Every command runs as ``python -m mialab.cli`` with ``PYTHONPATH`` set to this
checkout's ``src``, in OUTDIR, which must be new or empty.  The manifest,
``OUTDIR/MANIFEST``, holds one ``sha256  path`` line per file under OUTDIR,
sorted by path: every output file, and each command's stdout, stderr and exit
code.  Run it on two checkouts and diff the two manifests to see which CLI
output bytes a change alters.  It takes about 25 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ALL_KINDS = ["max_prob", "entropy", "log_loss", "lda_log_joint", "gbm_probs", "gbm_logits"]
LOGISTIC_KINDS = [k for k in ALL_KINDS if k != "lda_log_joint"]

CONFIGS = {
    "grid.cfg": "mu_values = 0.1 0.3\nd_values = 4 16\nn_train_values = 40\n"
                "seeds = 0 1\nn_test = 200\n",
    "eps.cfg": "mu_values = 0.1 0.3\nd_values = 4\nn_train_values = 40\n"
               "epsilon_values = 0 0.05\nseeds = 0 1\nn_test = 200\n",
    # n_train = 2 leaves LDA too few samples, so that cell fails alone
    "fail.cfg": "mu_values = 0.3\nd_values = 2\nn_train_values = 2 40\n"
                "seeds = 0\nn_test = 100\n",
    "repeated_key.cfg": "mu_values = 0.1\nmu_values = 0.3\nd_values = 4\nn_train_values = 40\n"
                        "seeds = 0\nn_test = 200\n",
}

RESULTS_HEADER = (
    "d,n_train,mu,sigma,sigma_noise,w,epsilon,seed,model,score_kind,auroc,advantage,accuracy\n")
# A results CSV whose model is none of mialab's; plot must reject it.
BAD_MODEL_RESULTS = RESULTS_HEADER + (
    "4,40,0.1,0.15,1.0,0.5,0.0,0,l<da&x,max_prob,0.600000,0.600000,0.700000\n"
)
# Two seeds of one cell with the second row repeated; report must reject it.
REPEATED_ROW_RESULTS = RESULTS_HEADER + (
    "4,40,0.1,0.15,1.0,0.5,0.0,0,lda,max_prob,0.600000,0.600000,0.700000\n"
    "4,40,0.1,0.15,1.0,0.5,0.0,1,lda,max_prob,0.500000,0.500000,0.700000\n"
    "4,40,0.1,0.15,1.0,0.5,0.0,1,lda,max_prob,0.500000,0.500000,0.700000\n"
)
# d = 8 model files whose numbers are JSON strings or a boolean; attack must reject them.
STRING_NUMBERS_MODEL = json.dumps({"kind": "logistic", "weights": ["0.1"] * 8, "bias": "0.1",
                                   "converged": True, "iterations": 3})
BOOL_SHRINKAGE_MODEL = json.dumps({
    "kind": "lda", "prior_pos": 0.5, "mean_pos": [0.4] + [0.0] * 7, "mean_neg": [-0.4] + [0.0] * 7,
    "chol_lower": [[float(i == j) for j in range(8)] for i in range(8)],
    "shrinkage_intensity": True, "log_det": 0.0})
# A d = 8 LDA file whose log_det is not the identity Cholesky factor's 0.0, and a
# logistic file with a key only LDA files define; attack must reject both.
LOG_DET_MISMATCH_MODEL = json.dumps({
    "kind": "lda", "prior_pos": 0.5, "mean_pos": [0.4] + [0.0] * 7, "mean_neg": [-0.4] + [0.0] * 7,
    "chol_lower": [[float(i == j) for j in range(8)] for i in range(8)],
    "shrinkage_intensity": 0.0, "log_det": 1.0})
UNKNOWN_KEY_MODEL = json.dumps({"kind": "logistic", "weights": [0.1] * 8, "bias": 0.1,
                                "converged": True, "iterations": 3, "log_det": 0.0})
# d = 8 model files that each break one rule of reading a field or the kind;
# attack must reject each.  A list kind must print as unknown, not as unhashable.
_LOGISTIC_FIELDS = {"kind": "logistic", "weights": [0.1] * 8, "bias": 0.1, "converged": True,
                    "iterations": 3}
_LDA_FIELDS = json.loads(LOG_DET_MISMATCH_MODEL) | {"log_det": 0.0}
READER_MODELS = {
    "no_log_det": {k: v for k, v in _LDA_FIELDS.items() if k != "log_det"},
    "mystery_kind": _LOGISTIC_FIELDS | {"kind": "mystery"},
    "list_kind": _LDA_FIELDS | {"kind": ["lda"]},
    "converged_string": _LOGISTIC_FIELDS | {"converged": "false"},
    "iterations_float": _LOGISTIC_FIELDS | {"iterations": 3.7},
    # fit_lda's shrinkage intensity lies in [0, 1]; NaN is written as the JSON extension NaN
    "shrinkage_nan": _LDA_FIELDS | {"shrinkage_intensity": float("nan")},
    "shrinkage_above_1": _LDA_FIELDS | {"shrinkage_intensity": 3.5},
}

COMMANDS = [
    ("generate_train", ["generate", "--d", "8", "--n", "200", "--mu", "0.4", "--seed", "3",
                        "--out", "train.csv"]),
    ("generate_test", ["generate", "--d", "8", "--n", "400", "--mu", "0.4", "--seed", "3",
                       "--split", "test", "--out", "test.csv"]),
    ("train_lda", ["train", "--model", "lda", "--data", "train.csv", "--out", "lda.json"]),
    ("train_logistic", ["train", "--model", "logistic", "--data", "train.csv",
                        "--out", "logistic.json"]),
    ("attack_lda", ["attack", "--model-file", "lda.json", "--member", "train.csv",
                    "--nonmember", "test.csv", "--scores", *ALL_KINDS,
                    "--out", "scores_lda.csv"]),
    ("attack_logistic", ["attack", "--model-file", "logistic.json", "--member", "train.csv",
                         "--nonmember", "test.csv", "--scores", *LOGISTIC_KINDS,
                         "--out", "scores_logistic.csv"]),
    ("sweep_w1", ["sweep", "--config", "grid.cfg", "--scores", *ALL_KINDS, "--workers", "1",
                  "--out", "results_w1.csv", "--summary-out", "summary_w1.csv"]),
    ("sweep_w2", ["sweep", "--config", "grid.cfg", "--scores", *ALL_KINDS, "--workers", "2",
                  "--out", "results_w2.csv", "--summary-out", "summary_w2.csv"]),
    ("sweep_eps", ["sweep", "--config", "eps.cfg", "--workers", "1",
                   "--out", "results_eps.csv", "--summary-out", "summary_eps.csv"]),
    ("sweep_fail", ["sweep", "--config", "fail.cfg", "--workers", "1",
                    "--out", "results_fail.csv", "--summary-out", "summary_fail.csv"]),
    ("report", ["report", "--results", "results_w1.csv", "--out", "privacy_utility.csv"]),
    ("plot", ["plot", "--results", "results_w1.csv", "--out", "plots"]),
    ("plot_eps", ["plot", "--results", "results_eps.csv", "--out", "plots_eps"]),
    ("bounds", ["bounds", "--out", "bounds.csv"]),
    ("bounds_2x2", ["bounds", "--x", "2", "--y", "2", "--out", "bounds_2x2.csv"]),
    ("bounds_8x2", ["bounds", "--x", "8", "--y", "2", "--trials", "300", "--seed", "1",
                    "--out", "bounds_8x2.csv"]),
    # both violations come from the scalar dominance check
    ("bounds_3x3", ["bounds", "--x", "3", "--y", "3", "--trials", "1000", "--seed", "1",
                    "--out", "bounds_3x3.csv"]),
    # long tables, whose rows the row channels' column-0 chain filter keeps apart
    ("bounds_600x2", ["bounds", "--x", "600", "--y", "2", "--trials", "2",
                      "--out", "bounds_600x2.csv"]),
    ("bounds_2000x4", ["bounds", "--x", "2000", "--y", "4", "--trials", "3",
                       "--out", "bounds_2000x4.csv"]),
    # rows of 8 or more terms change numpy's summation grouping
    ("bounds_2x8", ["bounds", "--x", "2", "--y", "8", "--trials", "300",
                    "--out", "bounds_2x8.csv"]),
    # one atom on an axis: exit 2
    ("bounds_bad_shape", ["bounds", "--x", "1", "--out", "bounds_bad_shape.csv"]),
    # d = 256 puts lda_log_joints' whitening solve at the sweep's largest shape
    ("generate_train_d256", ["generate", "--d", "256", "--n", "1000", "--mu", "0.3",
                             "--seed", "5", "--out", "train_d256.csv"]),
    ("generate_test_d256", ["generate", "--d", "256", "--n", "2000", "--mu", "0.3",
                            "--seed", "5", "--split", "test", "--out", "test_d256.csv"]),
    ("train_lda_d256", ["train", "--model", "lda", "--data", "train_d256.csv",
                        "--out", "lda_d256.json"]),
    ("attack_lda_d256", ["attack", "--model-file", "lda_d256.json", "--member", "train_d256.csv",
                         "--nonmember", "test_d256.csv", "--scores", *ALL_KINDS,
                         "--out", "scores_lda_d256.csv"]),
    # inputs mialab rejects with exit 2
    ("sweep_repeated_kind", ["sweep", "--config", "grid.cfg", "--scores", "max_prob", "max_prob",
                             "--out", "results_repeated_kind.csv",
                             "--summary-out", "summary_repeated_kind.csv"]),
    ("sweep_repeated_key", ["sweep", "--config", "repeated_key.cfg", "--workers", "1",
                            "--out", "results_repeated_key.csv",
                            "--summary-out", "summary_repeated_key.csv"]),
    ("plot_bad_model", ["plot", "--results", "results_bad_model.csv", "--out", "plots_bad_model"]),
    ("report_repeated_row", ["report", "--results", "results_repeated_row.csv",
                             "--out", "privacy_utility_repeated_row.csv"]),
    ("train_tol_nan", ["train", "--model", "logistic", "--data", "train.csv", "--tol", "nan",
                       "--out", "logistic_tol_nan.json"]),
    ("train_tol_negative", ["train", "--model", "logistic", "--data", "train.csv", "--tol", "-1",
                            "--out", "logistic_tol_negative.json"]),
    # counts and seeds below their minimum: exit 2, nothing written
    ("generate_d_0", ["generate", "--d", "0", "--n", "10", "--mu", "0.4", "--out", "d_0.csv"]),
    ("generate_seed_negative", ["generate", "--d", "8", "--n", "10", "--mu", "0.4",
                                "--seed", "-1", "--out", "seed_negative.csv"]),
    # a size past numpy's index range: exit 2, nothing written
    ("generate_d_huge", ["generate", "--d", "99999999999999999999", "--n", "10", "--mu", "0.4",
                         "--out", "d_huge.csv"]),
    ("bounds_x_huge", ["bounds", "--x", "99999999999999999999", "--trials", "1",
                       "--out", "bounds_x_huge.csv"]),
    ("bounds_trials_negative", ["bounds", "--trials", "-1",
                                "--out", "bounds_trials_negative.csv"]),
    ("train_max_iter_0", ["train", "--model", "logistic", "--data", "train.csv",
                          "--max-iter", "0", "--out", "logistic_max_iter_0.json"]),
    ("sweep_workers_0", ["sweep", "--config", "grid.cfg", "--workers", "0",
                         "--out", "results_workers_0.csv",
                         "--summary-out", "summary_workers_0.csv"]),
    # --seed on commands that draw no random numbers: usage error, exit 1
    ("train_seed", ["train", "--model", "lda", "--data", "train.csv", "--seed", "1",
                    "--out", "lda_seed.json"]),
    ("plot_seed", ["plot", "--results", "results_w1.csv", "--seed", "1", "--out", "plots_seed"]),
    # finite features near the float limit, whose LDA covariance overflows
    ("generate_overflow", ["generate", "--d", "3", "--n", "5", "--mu", "0.1", "--epsilon", "0.5",
                           "--tau-mult", "1e308", "--out", "overflow.csv"]),
    ("train_lda_overflow", ["train", "--model", "lda", "--data", "overflow.csv",
                            "--out", "lda_overflow.json"]),
    ("train_logistic_overflow", ["train", "--model", "logistic", "--data", "overflow.csv",
                                 "--out", "logistic_overflow.json"]),
    # at n = 200 some draws overflow to inf, so nothing is written
    ("generate_overflow_n200", ["generate", "--d", "3", "--n", "200", "--mu", "0.1",
                                "--epsilon", "0.5", "--tau-mult", "1e308",
                                "--out", "overflow_n200.csv"]),
    # lda_log_joint needs an LDA target; the boosted attack before it must not run
    ("attack_logistic_lda_log_joint", ["attack", "--model-file", "logistic.json",
                                       "--member", "train.csv", "--nonmember", "test.csv",
                                       "--scores", "max_prob", "gbm_probs", "lda_log_joint",
                                       "--out", "scores_logistic_lda_log_joint.csv"]),
    # a number field that is a JSON string or a boolean, where float() would convert it
    ("attack_string_numbers_model", ["attack", "--model-file", "string_numbers.json",
                                     "--member", "train.csv", "--nonmember", "test.csv",
                                     "--scores", "max_prob",
                                     "--out", "scores_string_numbers.csv"]),
    ("attack_bool_shrinkage_model", ["attack", "--model-file", "bool_shrinkage.json",
                                     "--member", "train.csv", "--nonmember", "test.csv",
                                     "--scores", "max_prob",
                                     "--out", "scores_bool_shrinkage.csv"]),
    ("attack_log_det_mismatch_model", ["attack", "--model-file", "log_det_mismatch.json",
                                       "--member", "train.csv", "--nonmember", "test.csv",
                                       "--scores", "max_prob",
                                       "--out", "scores_log_det_mismatch.csv"]),
    ("attack_unknown_key_model", ["attack", "--model-file", "unknown_key.json",
                                  "--member", "train.csv", "--nonmember", "test.csv",
                                  "--scores", "max_prob", "--out", "scores_unknown_key.csv"]),
    *((f"attack_{name}_model", ["attack", "--model-file", f"{name}.json", "--member", "train.csv",
                                "--nonmember", "test.csv", "--scores", "max_prob",
                                "--out", f"scores_{name}.csv"])
      for name in READER_MODELS),
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    for name, body in CONFIGS.items():
        (out / name).write_text("# mialab sweep config v1\n" + body)
    (out / "results_bad_model.csv").write_text(BAD_MODEL_RESULTS)
    (out / "results_repeated_row.csv").write_text(REPEATED_ROW_RESULTS)
    (out / "string_numbers.json").write_text(STRING_NUMBERS_MODEL)
    (out / "bool_shrinkage.json").write_text(BOOL_SHRINKAGE_MODEL)
    (out / "log_det_mismatch.json").write_text(LOG_DET_MISMATCH_MODEL)
    (out / "unknown_key.json").write_text(UNKNOWN_KEY_MODEL)
    for name, payload in READER_MODELS.items():
        (out / f"{name}.json").write_text(json.dumps(payload))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    logs = out / "logs"
    logs.mkdir()
    for name, args in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "mialab.cli", *args],
                              cwd=out, env=env, capture_output=True)
        (logs / f"{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{name}.stderr").write_bytes(proc.stderr)
        (logs / f"{name}.exit").write_text(f"{proc.returncode}\n")
    lines = sorted(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
        for path in out.rglob("*") if path.is_file())
    (out / "MANIFEST").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {out / 'MANIFEST'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
