"""Work bounds of version reuse on the perf ledger's seed-7 jpeg@2 stream.

Read against the base version, or against the edit before it, a one-wire
edit of ``top`` decodes one element, the wire, of the 5 800-odd of its 20
structures; its tree places only ``top``'s references; one layer digest
(the edit's layer, M2) is computed; and the diff visits ``top`` alone and
turns only the changed span of its M2 rings into bytes. A served chain of
ten edits decodes one element a turn, answers, turn for turn, what a fresh
session of each version answers, and its last report is the cold oracle's;
the daemon then holds the bytes of the last upload only. It builds the
top's ring tables and keeps its placed references on the second recheck
only, carrying both on through every later splice; a chain of edits
mid-way through the top builds no table. Fixing a placed
definition (the sliver of ``NAND2x1``) splices to the cold report, and the
region gather hands each subtree only the windows its placed MBR meets.
"""

import gc
import os
import sys
import types

import pytest

from repro.core import diff as diff_module
from repro.core import packstore
from repro.core.diff import diff_layouts
from repro.core.packstore import layer_digests, layer_geometry_digest
from repro.gdsii import read_bytes, read_layout_bytes, write_bytes
from repro.geometry.transform import row_transform
from repro.hierarchy import tree as tree_module
from repro.hierarchy.pruning import SubtreeWindow
from repro.hierarchy.tree import HierarchyTree
from repro.layout import gdsii_from_layout, layout_from_gdsii
from repro.layout.cell import RingBuffer
from repro.server import ServerState
from repro.workloads import asap7

from .test_version_reuse import elements_of, name_of, split, spy_decoded

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks", "ledger"))
import inputs as ledger_inputs  # noqa: E402

TOP = ledger_inputs.TOP


@pytest.fixture(scope="module")
def stream():
    return ledger_inputs.synthesize(7, design="jpeg", scale=2, injected=40, n_edits=48)


@pytest.fixture(scope="module")
def base(stream):
    layout = read_layout_bytes(stream.base_gds)
    layout.set_top(TOP)
    tree = HierarchyTree(layout)
    return layout, tree, {L: layer_geometry_digest(tree, L) for L in layout.layers()}


def spy(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name`` from here on."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def read_edit(stream, base, k=0):
    layout = read_layout_bytes(stream.edit_gds(k), previous=base[0])
    layout.set_top(TOP)
    return layout


def test_a_one_wire_edit_decodes_only_the_wire(stream, base, monkeypatch):
    decoded = spy_decoded(monkeypatch)
    previous = base[0]
    for k in range(4):
        data = stream.edit_gds(k)
        against_base = read_layout_bytes(data, previous=base[0])
        assert decoded == [TOP]
        decoded.clear()
        against_last = read_layout_bytes(data, previous=previous)
        assert decoded == [TOP]
        decoded.clear()
        previous = against_last
        assert [c.source_token for c in against_base.cells.values()] == [
            c.source_token for c in against_last.cells.values()
        ]
    read_layout_bytes(stream.edit_gds(0))
    assert len(set(decoded)) == len(base[0].cells) == 20
    assert len(decoded) > 5800


def test_the_tree_places_only_the_references_of_top(stream, base, monkeypatch):
    new = read_edit(stream, base)
    placed = spy(monkeypatch, tree_module, "reference_mbr")
    tree = HierarchyTree(new, previous=base[1])
    top_refs = {id(ref) for ref in new.cell(TOP).references}
    assert placed and {id(args[0]) for args in placed} <= top_refs
    carried = len(placed)
    placed.clear()
    fresh = HierarchyTree(new)
    assert tree._layer_mbrs == fresh._layer_mbrs
    assert carried < len(placed)


def test_one_layer_digest_is_computed(stream, base, monkeypatch):
    new = read_edit(stream, base)
    tree = HierarchyTree(new, previous=base[1])
    computed = spy(monkeypatch, packstore, "layer_geometry_digest")
    digests = layer_digests(tree, new.layers(), (base[1], base[2]))
    assert [args[1] for args in computed] == [asap7.M2]
    monkeypatch.undo()
    fresh = HierarchyTree(read_layout_bytes(stream.edit_gds(0)), top=TOP)
    assert digests == {L: layer_geometry_digest(fresh, L) for L in new.layers()}


def test_the_diff_visits_only_top(stream, base, monkeypatch):
    old, old_tree, old_digests = base
    new = read_edit(stream, base)
    new_tree = HierarchyTree(new, previous=old_tree)
    new_digests = layer_digests(new_tree, new.layers(), (old_tree, old_digests))
    local = spy(monkeypatch, diff_module, "_cell_local_dirty")
    refs = spy(monkeypatch, diff_module, "_cell_ref_dirty")
    diff = diff_layouts(
        old, new, old_tree=old_tree, new_tree=new_tree,
        old_digests=old_digests, new_digests=new_digests,
    )
    assert diff.dirty_layers() == [asap7.M2]
    assert {args[1].name for args in local} == {args[1].name for args in refs} == {TOP}


def test_a_one_wire_edit_turns_only_the_changed_span_into_bytes(stream, base, monkeypatch):
    old, old_tree, old_digests = base
    new = read_edit(stream, base)
    new_tree = HierarchyTree(new, previous=old_tree)
    new_digests = layer_digests(new_tree, new.layers(), (old_tree, old_digests))
    spans = []
    ring_bytes = RingBuffer.ring_bytes

    def spy(rings, *args):
        keys = ring_bytes(rings, *args)
        spans.append(len(keys))
        return keys

    monkeypatch.setattr(RingBuffer, "ring_bytes", spy)
    diff_layouts(
        old, new, old_tree=old_tree, new_tree=new_tree,
        old_digests=old_digests, new_digests=new_digests,
    )
    assert len(new.cell(TOP).rings(asap7.M2)) > 1000
    assert sorted(spans) == [0, 1]  # the old side's empty span, the new wire


def sliver_fix(stream, cell="NAND2x1"):
    """The base stream with the M1 sliver deleted from ``cell``'s definition."""
    layout = layout_from_gdsii(read_bytes(stream.base_gds))
    layout.cell(cell).remove_polygon(asap7.M1, -1)  # the sliver went in last
    return write_bytes(gdsii_from_layout(layout))


def test_a_definition_fix_splices_to_the_cold_report(stream, monkeypatch):
    data = sliver_fix(stream)
    handed = []
    visit = SubtreeWindow._walk

    def spy(self, cell_name, row, layer, windows, named, out):
        # The stream places nothing magnified: the walk holds integer rows.
        placed = row_transform(row).apply_rect(self.tree.layer_mbr(cell_name, layer))
        handed.append((cell_name, [placed.overlaps(w) for w in windows]))
        return visit(self, cell_name, row, layer, windows, named, out)

    monkeypatch.setattr(SubtreeWindow, "_walk", spy)
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=TOP)
        state.check(session.sid)
        handed.clear()
        report, meta = state.recheck(session.sid, data=data)
    assert "windowed" in meta["recheck"]["disposition"].values()
    assert report.to_csv(expand_instances=True) + "\n" == ledger_inputs.oracle_csv(data)
    # Every window handed down to a subtree meets that subtree's placed MBR.
    below = [meets for name, meets in handed if name != TOP]
    assert below and all(all(meets) for meets in below)
    assert sum(map(len, below)) < 10_000


def test_a_served_chain_answers_what_fresh_sessions_answer(stream, monkeypatch):
    def body(report):
        """The reply report, less how long it took and how it was made."""
        payload = report.payload()
        del payload["mode"]
        for result in payload["results"]:
            del result["seconds"], result["stats"]
        return payload

    decoded = spy_decoded(monkeypatch)
    with ServerState() as chained, ServerState() as fresh:
        session, _ = chained.create_session(data=stream.base_gds, top=TOP)
        chained.check(session.sid)
        for k in range(10):
            data = stream.edit_gds(k)
            decoded.clear()
            report, _ = chained.recheck(session.sid, data=data)
            assert decoded == [TOP]
            other, _ = fresh.create_session(data=data, top=TOP)
            expected, _ = fresh.check(other.sid)
            assert body(report) == body(expected)
            for query in stream.queries[:3]:
                kwargs = dict(
                    severity=query.severity,
                    rules=list(query.rules) if query.rules else None,
                    bbox=query.bbox,
                )
                got = chained.violations(session.sid, **kwargs)
                want = fresh.violations(other.sid, **kwargs)
                assert (got["total"], got["violations"]) == (want["total"], want["violations"])
    assert report.to_csv(expand_instances=True) + "\n" == ledger_inputs.oracle_csv(data)


def spy_table_builds(monkeypatch):
    """``(table, rings)`` of every derived table a ring buffer builds from
    scratch from here on (not one a splice carried)."""
    built = []
    for name, slot in (("block_bounds", "_bounds"), ("xorder", "_order")):

        def building(rings, real=getattr(RingBuffer, name), name=name, slot=slot):
            if getattr(rings, slot) is None:
                built.append((name, len(rings)))
            return real(rings)

        monkeypatch.setattr(RingBuffer, name, building)
    return built


def top_s(built):
    """The tables of ``built`` that the top's layers built (the only
    buffers of over a thousand rings)."""
    return {name for name, count in built if count > 1000}


def test_a_served_chain_builds_the_top_s_tables_once(stream, monkeypatch):
    """Eight chained served rechecks, one top-strip wire swapped a turn.
    A cold check builds no table anywhere, nor does the first recheck,
    which only walks the top and places its references (a one-shot
    recheck keeps nothing). The second recheck's version, a head copy of a
    walked version, builds the top's block bounds and x-ordered index, and
    its tree keeps the placed references; every later splice and tree
    carries them, placing no reference. Each served CSV is the cold
    check's. (A broken carry would stay correct and silently get slow.)"""
    built = spy_table_builds(monkeypatch)
    placed = spy(monkeypatch, tree_module, "reference_mbr")
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=TOP)
        state.check(session.sid)
        assert built == []  # a cold check builds neither, in any buffer
        for k in range(8):
            built.clear()
            placed.clear()
            data = stream.edit_gds(k)
            report, _ = state.recheck(session.sid, data=data)
            assert top_s(built) == ({"block_bounds", "xorder"} if k == 1 else set())
            assert bool(placed) == (k < 2)
            assert report.to_csv(expand_instances=True) + "\n" == ledger_inputs.oracle_csv(data)


def mid_structure_gds(stream, k):
    """``edit_gds(k)`` with its M2 wire moved from the top's end to the
    middle of the top's M2 elements."""
    base = stream.base_gds
    wire = stream.edit_gds(k)[stream._splice_at :][: len(stream.edit_gds(k)) - len(base)]
    top = next(s for s in split(base)[1] if name_of(s) == TOP)
    head, elements, _ = elements_of(top)
    m2 = [i for i, e in enumerate(elements) if e[:10] == wire[:10]]  # BOUNDARY, LAYER M2
    at = base.index(top) + len(head) + sum(map(len, elements[: m2[len(m2) // 2]]))
    return base[:at] + wire + base[at:]


def test_a_served_chain_edited_mid_structure_builds_no_tables(stream, monkeypatch):
    """Five chained served rechecks whose M2 wire sits mid-way through the
    top's M2 rings. Every version of a top layer with rings past the wire
    (M2 among them) ends in a tail copy, which would drop whatever tables
    it carried, so it builds none: a table sorted afresh every turn would
    cost more than the scan. A top layer wholly before the wire is only
    head-copied, builds its tables on the second recheck and carries them
    on. Each served CSV is the cold check's."""
    built = spy_table_builds(monkeypatch)
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=TOP)
        state.check(session.sid)
        for k in range(5):
            built.clear()
            data = mid_structure_gds(stream, k)
            report, _ = state.recheck(session.sid, data=data)
            assert report.to_csv(expand_instances=True) + "\n" == ledger_inputs.oracle_csv(data)
            if k != 1:
                assert top_s(built) == set()
        m2 = state.session(session.sid).layout.cell(TOP).rings(asap7.M2)
        assert len(m2) > 1000 and m2._bounds is None and m2._order is None


def large_bytes_reachable(root):
    """Every ``bytes`` of over 64 KiB reachable from ``root`` through object
    references, without entering modules, classes, functions or frames."""
    found, seen, stack = [], set(), [root]
    opaque = (types.ModuleType, type, types.FunctionType, types.FrameType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, bytes):
            if len(obj) > 1 << 16:
                found.append(obj)
            continue
        stack.extend(gc.get_referents(obj))
    return found


def test_a_served_chain_holds_only_the_last_upload(stream):
    """Neither the session nor the daemon's engine (whose last full check
    was of the first upload) keeps an earlier upload's bytes."""
    uploads = [stream.base_gds]
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=TOP)
        state.check(session.sid)
        for k in range(10):
            uploads.append(stream.edit_gds(k))
            state.recheck(session.sid, data=uploads[-1])
        gc.collect()
        held = large_bytes_reachable(state)
    assert [upload for upload in uploads if any(b is upload for b in held)] == [uploads[-1]]
    assert {id(cell.source.data) for cell in session.layout.cells.values()} == {id(uploads[-1])}
