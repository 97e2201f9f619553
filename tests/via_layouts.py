"""Random hierarchical metal + via layouts and a deck of every rule kind.

Shared by the suites that hold the parallel engine, fault injection and
concurrent checks to the sequential reference.
"""

import random

from repro.core.rules import layer, polygons
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout


def random_via_layout(seed: int, *, kinds: int = 3, instances: int = 30) -> Layout:
    """Random hierarchical metal (layer 1) + via (layer 2) layout.

    Vias sit inside their metal with a random margin, so some violate a
    modest enclosure rule and some do not.
    """
    rng = random.Random(seed)
    layout = Layout(f"vias-{seed}")
    for kind in range(kinds):
        leaf = layout.new_cell(f"leaf_{kind}")
        for _ in range(rng.randint(1, 4)):
            x, y = rng.randint(0, 120), rng.randint(0, 120)
            w, h = rng.randint(14, 36), rng.randint(14, 36)
            leaf.add_polygon(1, Polygon.from_rect_coords(x, y, x + w, y + h))
            margin = rng.randint(0, 5)
            leaf.add_polygon(
                2,
                Polygon.from_rect_coords(
                    x + margin, y + margin, x + margin + 4, y + margin + 4
                ),
            )
    top = layout.new_cell("top")
    for _ in range(instances):
        top.add_reference(
            CellReference(
                f"leaf_{rng.randrange(kinds)}",
                Transform(
                    dx=rng.randint(0, 4000),
                    dy=rng.randint(0, 4000),
                    rotation=rng.choice((0, 90, 180, 270)),
                    mirror_x=rng.random() < 0.5,
                ),
            )
        )
    layout.set_top("top")
    return layout


def _narrow(polygon):
    return polygon.mbr.width <= 400


def every_kind_deck():
    """One rule of every kind the engine executes, on the metal+via layout."""
    return [
        polygons().is_rectilinear().named("RECT"),
        layer(1).polygons().ensures(_narrow).named("ENS"),
        layer(1).width().greater_than(8).named("W"),
        layer(1).area().greater_than(400).named("A"),
        layer(1).spacing().greater_than(7).named("S"),
        layer(1).corner_spacing().greater_than(6).named("CS"),
        layer(1).same_mask_spacing().greater_than(9).named("DP"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
        layer(2).overlap(layer(1)).greater_than(10).named("OVL"),
    ]
