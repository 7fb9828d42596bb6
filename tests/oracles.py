"""Helpers the tests share and the package does not need: sampling a closed
form onto a time lattice, writing a sampled weight as CSV, and an
independent growth-rate estimate for spectrum points."""

import math

import numpy as np

from perispec._io import write_csv
from perispec.evolution import period_action
from perispec.weights import from_samples


def sample_closed_form(weight, grid, n_samples):
    """A closed-form weight sampled at ``n_samples`` uniform times of its period."""
    times = np.arange(n_samples) * (weight.period / n_samples)
    return from_samples(weight.table(times, grid), weight.period)


def save_sampled_csv(weight, path):
    """Write a sampled weight as the (t_index, node_index, value) rows the CLI reads."""
    samples = weight.samples
    rows = ((ti, ni, float(samples[ti, ni]))
            for ti in range(samples.shape[0]) for ni in range(samples.shape[1]))
    write_csv(path, ["t_index", "node_index", "value"], rows)


def lyapunov_estimate(op, weight, lam, n_periods=50, n_steps=None):
    """Average growth rate of the constant field under vector periods.

    The field is renormalized each period and the log increments of the last
    half of the run are averaged: an estimate of ``mu`` that uses no
    eigensolver.
    """
    apply = period_action(op, weight, lam, n_steps)
    u = np.ones(op.n)
    logs = []
    for _ in range(n_periods):
        u = apply(u)
        nrm = float(np.abs(u).max())
        logs.append(math.log(nrm))
        u = u / nrm
    return float(np.mean(logs[n_periods // 2:]) / weight.period)
