"""Shared fixtures: small designs are expensive enough to cache per session."""

import pytest

from repro.workloads import build_design


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
