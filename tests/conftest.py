"""Shared fixtures: small designs are expensive enough to cache per session."""

import sys

import pytest

from repro.workloads import build_design


@pytest.fixture(autouse=True)
def _no_pool_outlives_its_test():
    """Close the shared worker pools a test's engines still hold, so no
    worker process outlives the test. Tests that never ran a multiprocess
    check never imported the pool module, and this does not import it."""
    yield
    workerpool = sys.modules.get("repro.core.workerpool")
    if workerpool is not None:
        workerpool.shutdown_pools()


@pytest.fixture(scope="session")
def uart_layout():
    return build_design("uart")


@pytest.fixture(scope="session")
def ibex_layout():
    return build_design("ibex")


@pytest.fixture()
def built_trees(monkeypatch):
    """Layouts a ``HierarchyTree`` was built for, in order, from here on
    (``clear()`` it after set-up work that builds trees of its own)."""
    from repro.hierarchy.tree import HierarchyTree

    built = []
    init = HierarchyTree.__init__

    def counting_init(self, layout, **kwargs):
        built.append(layout)
        init(self, layout, **kwargs)

    monkeypatch.setattr(HierarchyTree, "__init__", counting_init)
    return built
