"""Fans whose maximal cones have different dimensions.

Values on a lower-dimensional maximal cone live in the canonical quotient
coordinates of its span, so these tests cover the quotient-valued storage
that complete fans never exercise.
"""

import pytest

import pexpfan.pexp as pexp_module
from pexpfan.errors import RankMismatch
from pexpfan.fan import Fan
from pexpfan.laurent import LaurentPoly
from pexpfan.pexp import (
    PiecewiseExponential,
    gkm_validate,
    pexp_from_json,
    pexp_to_json,
)

from oracles import star_quotient_oracle

E = LaurentPoly.exponential


@pytest.fixture(scope="module")
def mixed_fan():
    # a quadrant plus a stray ray: maximal cones of dimensions 2 and 1
    return Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])


class TestMixedDimensionFan:
    def test_shape(self, mixed_fan):
        assert mixed_fan.face_quotient((0, 1)).rank == 2
        assert mixed_fan.face_quotient((2,)).rank == 1
        assert not mixed_fan.is_complete()

    def test_constant_class(self, mixed_fan):
        one = PiecewiseExponential.constant(mixed_fan, 1)
        assert one.values == (LaurentPoly.one(2), LaurentPoly.one(1))

    def test_values_over_m_are_projected(self, mixed_fan):
        # e^{u1} restricted to the ray through -e1 is e^{-t}
        report = gkm_validate(mixed_fan, (E((1, 0)), E((1, 0))))
        assert report.ok
        assert report.function.values[1] == E((-1,))

    def test_gkm_takes_the_star_pass(self, mixed_fan, monkeypatch):
        # the walls decide only on a complete fan; here the pass over the star table does
        def refuse(fan, vals):
            raise AssertionError("an incomplete fan reached the wall check")

        monkeypatch.setattr(pexp_module, "_agree_across_walls", refuse)
        assert gkm_validate(mixed_fan, (E((1, 0)), E((1, 0)))).ok
        assert not gkm_validate(mixed_fan, (LaurentPoly.one(2), LaurentPoly.constant(1, 2))).ok

    def test_quotient_valued_input(self, mixed_fan):
        report = gkm_validate(mixed_fan, (E((1, 0)), E((-1,))))
        assert report.ok

    def test_gkm_violation_at_origin(self, mixed_fan):
        # the only shared face is the origin, where augmentations must agree
        report = gkm_validate(
            mixed_fan, (LaurentPoly.one(2), LaurentPoly.constant(1, 2))
        )
        assert not report.ok
        assert report.violations[0].face == ()

    def test_module_action_and_restrict(self, mixed_fan):
        f = PiecewiseExponential.constant(mixed_fan, 1).module_action(E((2, 3)))
        assert f.values == (E((2, 3)), E((-2,)))
        assert f.restrict((2,)) == E((-2,))
        assert f.restrict(()) == LaurentPoly.constant(0, 1)

    def test_wrong_rank_value_rejected(self, mixed_fan):
        with pytest.raises(RankMismatch):
            gkm_validate(mixed_fan, (LaurentPoly.one(2), LaurentPoly.one(0)))

    def test_serialization_round_trip(self, mixed_fan):
        f = PiecewiseExponential.constant(mixed_fan, 1).module_action(E((1, -1)))
        assert pexp_from_json(pexp_to_json(f)) == f


class TestStarQuotientLifting:
    """The star of a face projected to N/N_tau by ``star_quotient_oracle``:
    ``Fan.build`` keeps its cone order, so cone i of the quotient fan is the
    image of cone ``lifting[i]``."""

    def test_lifting_names_the_source_cones(self):
        from pexpfan import catalog
        from pexpfan.fan import Cone
        from pexpfan.lattice import mat_vec

        fan = catalog.weighted_p112()
        tau = fan.rayset_from_vectors([(-1, -2)])
        qfan, lifting, (projection, _) = star_quotient_oracle(fan, tau)
        assert len(lifting) == len(qfan.maximal_cones)
        for q_idx, src_idx in enumerate(lifting):
            # the source cone must contain tau and project onto the image cone
            assert set(tau) <= set(fan.maximal_cones[src_idx])
            src = fan.cone_objects[src_idx]
            image = Cone.from_generators(
                qfan.rank, [mat_vec(projection, g) for g in src.generators]
            )
            expected = Cone.from_generators(
                qfan.rank, [qfan.rays[i] for i in qfan.maximal_cones[q_idx]]
            )
            assert image == expected

    def test_lifting_on_cube_fan_rays(self):
        from pexpfan import catalog

        fan = catalog.cube_fan()
        tau = fan.rayset_from_vectors([(1, 1, 1)])
        qfan, lifting, _ = star_quotient_oracle(fan, tau)
        assert qfan.rank == 2
        assert qfan.is_complete()
        # the ray lies in three of the six facet cones
        assert len(lifting) == 3
