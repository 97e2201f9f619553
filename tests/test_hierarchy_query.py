from repro.geometry import Transform


class TestInvert:
    def test_rigid_inverse_composes_to_identity(self):
        import random

        from repro.geometry import IDENTITY
        from repro.hierarchy import invert

        rng = random.Random("invert")
        for rotation in (0, 90, 180, 270):
            for mirror in (False, True):
                for _ in range(50):
                    t = Transform(
                        rng.randint(-9000, 9000), rng.randint(-9000, 9000), rotation, mirror
                    )
                    inverse = invert(t)
                    assert all(type(v) is int for v in (inverse.dx, inverse.dy))
                    assert inverse.compose(t) == IDENTITY
                    assert t.compose(inverse) == IDENTITY
