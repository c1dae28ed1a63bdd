"""Per-class form of the LDA log-joint, used only as a test oracle.

Each class's rows are centred at that class's mean and whitened by their own
full triangular solve, so no whitened quantity is shared between classes.
Kept free of any code sharing with mialab.linear_models.lda_log_joints on
purpose; only the model fields are read.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular


def lda_log_joints(model, X):
    """Per-class ``log prior + log density`` rows, shape (n, 2); column 0 is label -1."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = X.shape[1]
    const = -0.5 * (d * math.log(2.0 * math.pi) + model.log_det)
    out = np.empty((X.shape[0], 2))
    priors = (1.0 - model.prior_pos, model.prior_pos)
    means = (model.mean_neg, model.mean_pos)
    for idx, (prior, mean) in enumerate(zip(priors, means)):
        z = solve_triangular(model.chol_lower, (X - mean).T, lower=True)
        quad = np.sum(z**2, axis=0)
        out[:, idx] = math.log(prior) + const - 0.5 * quad
    return out
