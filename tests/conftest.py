"""Shared test fixtures."""

from __future__ import annotations

import dataclasses

import pytest


def _inject_edge(t, u, v, length):
    """Copy of ``t`` with one extra, possibly spurious, edge.

    Bypasses ``add_edge``'s length-consistency check, so falsifiability tests
    can plant a shortcut; the copy starts without a graph index.
    """
    key = tuple(sorted((u, v)))
    return dataclasses.replace(t, edges={**t.edges, key: length})


@pytest.fixture
def inject_edge():
    return _inject_edge
