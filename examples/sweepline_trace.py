"""Fig. 3 illustration: trace the MBR sweepline and its interval-tree status.

Reproduces the paper's Fig. 3 walkthrough on a small MBR population: the
conceptual line moves top to bottom; at each top side the rect's x-interval
is queried against the interval tree (reporting overlaps) and inserted, at
each bottom side it is removed.

The engine itself pairs MBRs with a sort-and-scan (docs/algorithms.md §3);
the interval tree lives on next to the spatial-index ablation, in
``benchmarks/interval_tree.py``.

    python examples/sweepline_trace.py
"""

import sys
from pathlib import Path

from repro.geometry import Rect

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repo root, for benchmarks/
from benchmarks.interval_tree import IntervalTree  # noqa: E402

RECTS = {
    "A": Rect(0, 60, 40, 100),
    "B": Rect(30, 40, 70, 90),
    "C": Rect(80, 55, 120, 95),
    "D": Rect(10, 0, 50, 30),
    "E": Rect(45, 10, 95, 50),
}


def main() -> None:
    events = []
    for name, rect in RECTS.items():
        events.append((-rect.yhi, 0, name))  # ENTER at the top side
        events.append((-rect.ylo, 1, name))  # EXIT at the bottom side
    events.sort()

    tree = IntervalTree([r.xlo for r in RECTS.values()])
    status = set()
    print("sweepline top-to-bottom over", ", ".join(RECTS))
    for neg_y, kind, name in events:
        rect = RECTS[name]
        y = -neg_y
        if kind == 0:
            overlaps = sorted(tree.query(rect.xlo, rect.xhi))
            tree.insert(rect.xlo, rect.xhi, name)
            status.add(name)
            report = f" -> overlap pairs {[f'{o}-{name}' for o in overlaps]}" if overlaps else ""
            print(
                f"y={y:>3}: ENTER {name} [{rect.xlo}, {rect.xhi}] "
                f"status={sorted(status)}{report}"
            )
        else:
            tree.remove(rect.xlo, rect.xhi, name)
            status.discard(name)
            print(f"y={y:>3}: EXIT  {name}              status={sorted(status)}")

    print("\n(B overlaps A; E overlaps B and D -- as reported above)")


if __name__ == "__main__":
    main()
