#!/usr/bin/env python3
"""The one-time experiment that fixed the localization sign convention.

Both sign choices normalize the unit class (chi = 1 on the projective line),
so that test cannot separate them.  The degree-one line bundle class does:
its Euler characteristic must be the sum of e^m over the lattice points of
the divisor polytope, with nonnegative coefficients.  The script builds the
localization sum of each class twice, over the tangent weights (epsilon = +1,
the dual basis of each cone's primitive generators) and over their negatives
(epsilon = -1).  Only epsilon = +1 passes; epsilon = -1 collapses the sum to
zero.  The package uses epsilon = +1 throughout.
"""

from pexpfan import catalog
from pexpfan.ktheory import tangent_weights
from pexpfan.lattice import vec_scale
from pexpfan.laurent import LaurentPoly, LocalizationSum
from pexpfan.pexp import PiecewiseExponential


def localize(f: PiecewiseExponential, epsilon: int) -> LaurentPoly:
    """The localization sum of f's values on its smooth complete fan, over
    epsilon times the tangent weights of each maximal cone, reduced."""
    terms = [
        (value, [vec_scale(epsilon, w) for w in tangent_weights(cone)])
        for value, cone in zip(f.values, f.fan.cone_objects)
    ]
    return LocalizationSum.build(f.fan.rank, terms).reduce()


def main() -> None:
    fan = catalog.projective_line()
    one = PiecewiseExponential.constant(fan, 1)
    degree_one = catalog.p1_degree_class(fan, 1)
    polytope_points = [(0,), (1,)]
    expected = sum(
        (LaurentPoly.exponential(p) for p in polytope_points), LaurentPoly.zero(1)
    )

    print("polytope lattice points:", polytope_points)
    print("target value: ", expected)
    for eps in (1, -1):
        unit_value = localize(one, eps)
        cls_value = localize(degree_one, eps)
        ok_unit = unit_value == LaurentPoly.one(1)
        ok_points = cls_value == expected
        verdict = "PASS" if (ok_unit and ok_points) else "fail"
        print(
            f"epsilon={eps:+d}: chi(unit)={unit_value}  chi(degree one)={cls_value}"
            f"  -> {verdict}"
        )


if __name__ == "__main__":
    main()
