import pytest

from repro.core.rules import (
    Rule,
    RuleKind,
    layer,
    load_deck_file,
    polygons,
    validate_rules,
)
from repro.errors import RuleError
from repro.geometry import Polygon


class TestChaining:
    def test_width_rule(self):
        rule = layer(19).width().greater_than(18)
        assert rule.kind is RuleKind.WIDTH
        assert rule.layer == 19 and rule.value == 18
        assert rule.is_intra and not rule.is_inter

    def test_spacing_rule(self):
        rule = layer(19).spacing().greater_than(21)
        assert rule.kind is RuleKind.SPACING
        assert rule.is_inter and not rule.is_intra

    def test_area_rule(self):
        rule = layer(19).area().greater_than(1000)
        assert rule.kind is RuleKind.AREA and rule.is_intra

    def test_enclosure_rule(self):
        rule = layer(21).enclosure(layer(19)).greater_than(5)
        assert rule.kind is RuleKind.ENCLOSURE
        assert rule.layer == 21 and rule.other_layer == 19
        assert rule.is_inter_layer

    def test_rectilinear_all_layers(self):
        rule = polygons().is_rectilinear()
        assert rule.kind is RuleKind.RECTILINEAR and rule.layer is None

    def test_rectilinear_one_layer(self):
        rule = layer(19).polygons().is_rectilinear()
        assert rule.layer == 19

    def test_ensures_listing1_example(self):
        rule = layer(20).polygons().ensures(lambda p: bool(p.name))
        assert rule.kind is RuleKind.ENSURES
        assert rule.predicate(Polygon.from_rect_coords(0, 0, 1, 1, name="x"))
        assert not rule.predicate(Polygon.from_rect_coords(0, 0, 1, 1))


class TestNaming:
    def test_default_names(self):
        assert layer(19).width().greater_than(18).name == "L19.W.18"
        assert layer(21).enclosure(layer(19)).greater_than(5).name == "L21.in.L19.EN.5"

    def test_named_override(self):
        rule = layer(19).width().greater_than(18).named("M1.W.1")
        assert rule.name == "M1.W.1" and str(rule) == "M1.W.1"

    def test_named_returns_copy(self):
        base = layer(19).width().greater_than(18)
        renamed = base.named("X")
        assert base.name != "X"


class TestValidation:
    def test_non_positive_value_rejected(self):
        with pytest.raises(RuleError):
            layer(19).width().greater_than(0)

    def test_negative_layer_rejected(self):
        with pytest.raises(RuleError):
            layer(-1)

    def test_ensures_requires_predicate(self):
        with pytest.raises(RuleError):
            Rule(kind=RuleKind.ENSURES, layer=1)

    def test_enclosure_requires_both_layers(self):
        with pytest.raises(RuleError):
            Rule(kind=RuleKind.ENCLOSURE, layer=1, value=5)

    def test_duplicate_rule_names_rejected(self):
        rules = [
            layer(19).width().greater_than(18).named("R"),
            layer(20).width().greater_than(18).named("R"),
        ]
        with pytest.raises(RuleError):
            validate_rules(rules)

    def test_distinct_names_pass(self):
        validate_rules(
            [layer(19).width().greater_than(18), layer(20).width().greater_than(18)]
        )


#: name -> (deck file contents, or None for no file, or "/" for a
#: directory; fragment of the error naming why it cannot be used).
UNUSABLE_DECKS = {
    "missing": (None, "cannot read deck"),
    "directory": ("/", "cannot read deck"),
    "syntax error": ("RULES = [\n", "cannot read deck"),
    "raises": ("RULES = [undefined_name]\n", "cannot read deck"),
    "no RULES": ("DECK = []\n", "must define RULES"),
    "RULES not a list": ("RULES = 'not a list'\n", "must define RULES"),
    "RULES not rules": ("RULES = [1, 2]\n", "must define RULES"),
}


def write_unusable_deck(tmp_path, case):
    """Create the deck file ``case`` names under ``tmp_path``; return its
    path and the error fragment a loader must report for it."""
    contents, fragment = UNUSABLE_DECKS[case]
    path = tmp_path / "deck.py"
    if contents == "/":
        path.mkdir()
    elif contents is not None:
        path.write_text(contents)
    return str(path), fragment


class TestDeckFile:
    def test_rules_load_in_file_order(self, tmp_path):
        path = tmp_path / "deck.py"
        path.write_text(
            "from repro.core.rules import layer, polygons\n"
            "RULES = [polygons().is_rectilinear().named('SHAPE'),\n"
            "         layer(19).width().greater_than(18).named('W')]\n"
        )
        rules = load_deck_file(str(path))
        assert [rule.name for rule in rules] == ["SHAPE", "W"]
        assert [rule.kind for rule in rules] == [RuleKind.RECTILINEAR, RuleKind.WIDTH]

    @pytest.mark.parametrize("case", list(UNUSABLE_DECKS))
    def test_unusable_deck_is_a_rule_error(self, tmp_path, case):
        path, fragment = write_unusable_deck(tmp_path, case)
        with pytest.raises(RuleError) as excinfo:
            load_deck_file(path)
        assert fragment in str(excinfo.value)
        assert path in str(excinfo.value)


class TestListing1OnDatabase:
    def test_db_methods_mirror_listing_1(self):
        """The paper's Listing 1 defines rules through methods on the db."""
        from repro.geometry import Polygon as P
        from repro.layout import Layout

        db = Layout("listing1")
        top = db.new_cell("top")
        top.add_polygon(19, P.from_rect_coords(0, 0, 100, 100))
        top.add_polygon(20, P.from_rect_coords(0, 0, 50, 50, name="named"))
        db.set_top("top")

        from repro.core import Engine

        engine = Engine()
        engine.add_rules([
            db.polygons().is_rectilinear(),
            db.layer(19).width().greater_than(18),
            db.layer(20).polygons().ensures(lambda p: bool(p.name)),
        ])
        report = engine.check(db)
        assert report.passed
