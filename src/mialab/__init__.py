"""Membership-inference laboratory.

A controlled toy pipeline for studying how much membership signal
different classifier outputs leak (data generation, generative and
discriminative linear classifiers, threshold and model-based attacks,
AUROC evaluation, experiment sweeps) plus an exact finite-space
divergence oracle that numerically certifies the relevant
total-variation/KL bounds.
"""
