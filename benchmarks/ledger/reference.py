"""The reference job: how fast is this host right now?

The ledger runs on a shared two-vCPU host whose speed shifts by 30 % and
more, for seconds and for minutes at a time, and no statistic of raw
seconds survives a shift that lasts longer than a run. So every op is
weighed against a fixed job run right before and right after it, and the
per-op metrics are reported in *reference jobs*: the op's seconds over the
mean seconds of the two reference runs next to it.

The job is this file run as a script in a fresh interpreter, spawned and
accounted for exactly like a CLI op. It imports nothing of the program (it
must not get faster when the program does) and does what the program does
all day: unpack binary records, build small objects, compare boxes in a
sorted sweep, group, sort and render rows. A fresh process each time,
because inside the harness the same loop ran up to 1.6x slower once the
oracle had filled the heap (every full GC pass walks it).
"""

from __future__ import annotations

import struct

_RECORDS = 25000


class _Box:
    __slots__ = ("layer", "xlo", "ylo", "xhi", "yhi")

    def __init__(self, layer: int, xlo: int, ylo: int, xhi: int, yhi: int) -> None:
        self.layer = layer
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi

    def gap(self, other: "_Box") -> int:
        return max(other.xlo - self.xhi, other.ylo - self.yhi, self.ylo - other.yhi)


def job() -> int:
    """Parse, build, sweep, group, render; returns a checksum."""
    stream = b"".join(
        struct.pack(">HBB5i", 24, 16, 3, i % 4, x, y, x + 20 + i % 13, y + 18 + i % 11)
        for i, x, y in (
            (i, (i * 7919) % 200_000, (i * 104_729) % 400) for i in range(_RECORDS)
        )
    )
    boxes, offset = [], 0
    while offset < len(stream):
        length, _rtype, _dtype = struct.unpack_from(">HBB", stream, offset)
        boxes.append(_Box(*struct.unpack_from(">5i", stream, offset + 4)))
        offset += length
    boxes.sort(key=lambda box: (box.xlo, box.ylo))
    close = []
    for index, box in enumerate(boxes):
        for other in boxes[index + 1 : index + 12]:
            if other.xlo - box.xhi >= 30:
                break
            if other.layer == box.layer and 0 <= box.gap(other) < 30:
                close.append((box.layer, box.xlo, box.ylo, other.xlo, other.ylo, box.gap(other)))
    groups: dict = {}
    for row in close:
        groups.setdefault((row[0], row[5]), []).append(row)
    text = "\n".join(
        ",".join(str(cell) for cell in row)
        for key in sorted(groups)
        for row in sorted(groups[key])
    )
    return len(boxes) + len(close) + len(text)


if __name__ == "__main__":
    if job() <= _RECORDS:
        raise SystemExit("reference job found nothing to do")
