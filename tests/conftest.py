"""Fixtures shared by the test modules."""

import pytest

from perispec.operator import Problem


@pytest.fixture
def problem_at_calls(monkeypatch):
    """The ``n_per_axis`` of every ``Problem.at`` call from here on."""
    calls = []
    original = Problem.at

    def counting(self, n_per_axis):
        calls.append(n_per_axis)
        return original(self, n_per_axis)
    monkeypatch.setattr(Problem, "at", counting)
    return calls
