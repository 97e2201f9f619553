"""GDSII stream format codec (interface layer).

A from-scratch reader/writer for the GDSII stream format: flat record codec
(:mod:`.records`), excess-64 REAL8 floats (:mod:`.real8`), the raw object
model mirroring the paper's Fig. 2 grammar (:mod:`.model`), and the
recursive-descent reader / writer pair (:mod:`.reader`, :mod:`.writer`).

The convenience :func:`read_layout` goes straight from a stream file to the
hierarchical layout database, matching the paper's Listing 1 usage
(``odrc::gdsii::read("path-to-gdsii")``); :func:`read_layout_bytes` does the
same for bytes already in memory. Both scan the stream once, without building
the raw object model in between.
"""

from .model import (
    GdsAref,
    GdsBoundary,
    GdsLibrary,
    GdsPath,
    GdsSref,
    GdsStrans,
    GdsStructure,
    aref_origins,
)
from .reader import read, read_bytes, walk_stream
from .records import DataType, Record, RecordType, pack_record, unpack_records
from .writer import write, write_bytes

__all__ = [
    "DataType",
    "GdsAref",
    "GdsBoundary",
    "GdsLibrary",
    "GdsPath",
    "GdsSref",
    "GdsStrans",
    "GdsStructure",
    "Record",
    "RecordType",
    "aref_origins",
    "pack_record",
    "read",
    "read_bytes",
    "read_layout",
    "read_layout_bytes",
    "unpack_records",
    "write",
    "write_bytes",
]


def read_layout(path, previous=None):
    """Read a GDSII file directly into a :class:`repro.layout.Layout`."""
    with open(path, "rb") as f:
        return read_layout_bytes(f.read(), previous=previous)


def read_layout_bytes(data: bytes, previous=None):
    """Parse in-memory GDSII stream bytes directly into a layout database.

    With ``previous`` (another version's layout), every structure whose bytes
    are those a cell of ``previous`` was read from is copied from that cell
    instead of decoded; the result, and any error, is that of a fresh read.
    """
    from ..layout.builder import LayoutSink

    return walk_stream(data, LayoutSink(previous))
