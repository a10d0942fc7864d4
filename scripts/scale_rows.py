#!/usr/bin/env python3
"""Time the ROADMAP's scale rows: one JSON line {"row", "size", "median_s",
"repeats"} each, the median of 3 runs on fresh inputs, of 101 for
``chi_octahedron_warm`` and of 31 for ``chi_octahedron``, whose runs are
too short for 3 to hold still (``--quick``: 1 run each on tiny sizes).

    PYTHONPATH=src python3 scripts/scale_rows.py [--quick]

``complete``: ``is_complete`` of a fresh copy, walls built, of the resolved
fan on (1,0), (1,N), (-1,0), (0,-1).  ``resolve_tied`` (``_rng1``: with
``Random(1)``): the fan on (1,2j) for j = 0..M, (-1,0), (0,-1), whose M cones
of multiplicity 2 tie.  ``resolve_tied3``: that fan coned over (0,0,1), in
rank 3, built unvalidated.  ``resolve_a``: the cone <(1,0),(1,N)>.  ``resolve_r3``:
the cone <(1,0,0),(0,1,0),(1,b,m)> of multiplicity m, with b the least unit
mod m from m // 3 on.  ``resolve_r4``: the cone <e1,e2,e3,(1,1,1,m)> of
multiplicity m, whose cones take the elimination adjugate of rank >= 4.
``resolve_dim2``: the 2-dimensional cone <(1,0,0),(1,N,0)> beside the ray
(0,0,1), whose pieces take their cell's coordinates.  ``chi_rank2``:
chi of the unit on the fan of ``complete``, its resolution passed.
``chi_cube128``: chi of e^(1,0,0) + 2e^(0,-1,1) on the cube fan through
``resolve(rng=Random(5), extra_rounds=R)``, 128 cones at R = 40.
``chi_octahedron``: chi of k times the octahedron class (the line bundle
e^(-s e_a) on the cone over the cube face x_a = s, its exponents times k)
through the 48-cone ``resolve(cube_fan())``.  ``chi_octahedron_warm``: the
same chi, its series built by one chi outside the timing, so that only the
fold of the series' sum is timed.  ``gram_cube``: ``gram_matrix``
of 8 classes (j times the octahedron class times e^(i,0,-i), j = 1..4,
i = 0, 1) against 4 faces of the cube fan (the zero cone, the ray
(1,1,1), an edge through it and a maximal cone) through the 48-cone
``resolve(cube_fan())`` (N = 48) or the ``chi_cube128`` refinement
(N = 128): the first class folds each face's series, the other seven reuse
them.  ``chi_wps``:
chi of the unit on P(1,q1,q2,q3), the fan on e1, e2, e3, (-q1,-q2,-q3) whose
cones are the four triples of rays, its resolution passed.  The chi rows
build their resolution outside the timing, so each folds its series.
``gkm_violations``: ``gkm_validate`` of the octahedron class on a fresh
validated copy of the 48-cone ``resolve(cube_fan())``, its value on cone 0
moved by e^(1,0,0), so that the walls refuse it and the pass over the star
table reports its violations.  ``gkm_report``: ``gkm_validate`` of the unit
with cone 0 moved by e^(1,0) on the fan of ``complete`` (N + 4 cones), whose
two violations the same pass reports.  ``validate_r3``: the validated
``Fan.build`` of the fine fan of ``resolve_r3``'s cone (2m - 1 cones), which
tiles that cone.  ``descend_r3``: ``SubdivisionMap.from_json`` of that
resolution's map, which validates both fans and checks the map, and
``descend`` of the unit through it.
``planless_shuffled``: ``reduce_localization``, with no plan, of the
octahedron class's localization sum over the N cones of ``resolve(cube_fan())``
(N = 48) or of the ``chi_cube128`` refinement (N = 128), its terms shuffled by
``Random(1).sample``, so that every merge is the greedy fallback.
``decompose_dependent``: ``decompose`` of the unit over k copies of the unit
on the 48-cone ``resolve(cube_fan())``, which ``DependentBasis`` refuses.
``decompose_p1n``: ``decompose`` of every element of the (P^1)^n product
basis (``catalog.product_basis``) over that basis.
``decompose_wps``: ``decompose`` of a combination of four classes on the
resolved P(1,q1,q2,q3) over them (``wps_divisor_basis``), whose values'
exponents spread over hundreds of units at the large weights.
"""
import argparse
import json
import random
import statistics
import time
from math import gcd

from pexpfan import catalog
from pexpfan.errors import DependentBasis
from pexpfan.fan import Fan, SubdivisionMap, resolve
from pexpfan.ktheory import chi, decompose, gram_matrix, tangent_weights
from pexpfan.laurent import LaurentPoly, LocalizationSum, reduce_localization
from pexpfan.pexp import PiecewiseExponential, descend, gkm_validate



def cyclic_fan(rays):  # the cones join angularly consecutive rays
    return Fan.build(2, rays, [tuple(sorted((i, (i + 1) % len(rays)))) for i in range(len(rays))])


def fresh_fine_fan(n):
    fine = resolve(cyclic_fan([(1, 0), (1, n), (-1, 0), (0, -1)])).fine
    fan = Fan.build(2, fine.rays, fine.maximal_cones, validate=False)
    fan.walls
    return fan


def moved_unit(n):
    fan = fresh_fine_fan(n)
    values = [LaurentPoly.one(2)] * len(fan.maximal_cones)
    values[0] = LaurentPoly.exponential((1, 0))
    return fan, values


def unit_chi(resolution):
    fan = resolution.coarse
    return chi(fan, PiecewiseExponential.constant(fan, 1), resolution=resolution)


def cube_class_chi(resolution):
    value = LaurentPoly.exponential((1, 0, 0)) + LaurentPoly.exponential((0, -1, 1), 2)
    cube = resolution.coarse
    return chi(cube, PiecewiseExponential.constant(cube, 1).module_action(value), resolution=resolution)


def octahedron_chi(k):
    cube = catalog.cube_fan()
    return resolve(cube), catalog.octahedron_class(cube, k)


def resolved_chi(subject):
    return chi(subject[0].coarse, subject[1], resolution=subject[0])


def warm_octahedron_chi(k):
    subject = octahedron_chi(k)
    resolved_chi(subject)  # builds the series
    return subject


def cube_gram(cones):
    cube = catalog.cube_fan()
    sub = resolve(cube) if cones == 48 else resolve(cube, rng=random.Random(5), extra_rounds=40)
    classes = [catalog.octahedron_class(cube, j).module_action(LaurentPoly.exponential((i, 0, -i)))
               for j in range(1, 5) for i in range(2)]
    edge = next(f for f in cube.faces if len(f) == 2 and 0 in f)  # ray 0 is (1,1,1)
    return sub, classes, [(), (0,), edge, cube.maximal_cones[0]]


def corrupted_cube48(_):
    cube = catalog.cube_fan()
    sub = resolve(cube)
    octahedron = catalog.octahedron_class(cube)
    values = [octahedron.values[j] for j in sub.assignment]
    values[0] = values[0] * LaurentPoly.exponential((1, 0, 0))
    return Fan.build(3, sub.fine.rays, sub.fine.maximal_cones), values


def shuffled_octahedron_sum(cones):
    cube = catalog.cube_fan()
    sub = resolve(cube) if cones == 48 else resolve(cube, rng=random.Random(5), extra_rounds=40)
    octahedron = catalog.octahedron_class(cube)
    terms = [(octahedron.values[j], tangent_weights(sub.fine.cone_objects[i]))
             for i, j in enumerate(sub.assignment)]
    return LocalizationSum.build(3, random.Random(1).sample(terms, len(terms)))


def rank3_cone(m):
    b = next(b for b in range(m // 3, m) if gcd(b, m) == 1)
    return Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, b, m)], [(0, 1, 2)])


def unit_descended(doc):
    sub = SubdivisionMap.from_json(doc)
    return descend(PiecewiseExponential.constant(sub.fine, 1), sub)


def rank4_cone(m):
    return Fan.build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, m)], [(0, 1, 2, 3)])


def dim2_cone(n):
    return Fan.build(3, [(1, 0, 0), (1, n, 0), (0, 0, 1)], [(0, 1), (2,)])


def tied(m):
    return cyclic_fan([(1, 2 * j) for j in range(m + 1)] + [(-1, 0), (0, -1)])


def tied3(m):
    plane = tied(m)
    apex = len(plane.rays)
    return Fan.build(3, [r + (0,) for r in plane.rays] + [(0, 0, 1)],
                     [c + (apex,) for c in plane.maximal_cones], validate=False)


def dependent_cube_basis(k):
    one = PiecewiseExponential.constant(resolve(catalog.cube_fan()).fine, 1)
    return one, [one] * k


def refused(subject):
    try:
        decompose(*subject)
    except DependentBasis:
        return
    raise AssertionError("a dependent basis was not refused")


def wps_divisor_basis(qs):
    """(f, basis) on the resolved P(1,q1,q2,q3): the unit and, for each of the
    first three rays, 1 - e^{w} on the cones holding it, w the tangent weight
    dual to it there, and 0 elsewhere; f is the sum of basis_j * e^{(j,0,-j)}."""
    fine = resolve(catalog.weighted_projective_space(qs)).fine
    one, zero = LaurentPoly.one(3), LaurentPoly.zero(3)
    weights = [dict(zip(cone.generators, tangent_weights(cone))) for cone in fine.cone_objects]
    basis = [PiecewiseExponential.constant(fine, 1)] + [
        PiecewiseExponential.from_values(fine, [one - LaurentPoly.exponential(w[ray]) if ray in w else zero
                                                for w in weights]) for ray in fine.rays[:3]]
    f = PiecewiseExponential.constant(fine, 0)
    for j, g in enumerate(basis):
        f = f + g.module_action(LaurentPoly.exponential((j, 0, -j)))
    return f, basis


ap = argparse.ArgumentParser(description="Time the scale rows of the ROADMAP baseline table.")
ap.add_argument("--quick", action="store_true", help="tiny sizes, one run each")
quick = ap.parse_args().quick
tied_sizes = (5, 10) if quick else (500, 1000, 2000)
rows = [
    ("complete", (10, 20) if quick else (1000, 2000, 4000), fresh_fine_fan, Fan.is_complete),
    ("resolve_tied", tied_sizes, tied, resolve),
    ("resolve_tied_rng1", tied_sizes, tied, lambda fan: resolve(fan, rng=random.Random(1))),
    ("resolve_tied3", tied_sizes, tied3, resolve),
    ("resolve_a", (5, 10) if quick else (200, 1000, 10002),
     lambda n: Fan.build(2, [(1, 0), (1, n)], [(0, 1)]), resolve),
    ("resolve_r3", (10, 20) if quick else (100, 300, 1000), rank3_cone, resolve),
    ("resolve_r4", (5, 10) if quick else (100, 300, 1000), rank4_cone, resolve),
    ("resolve_dim2", (5, 10) if quick else (500, 1000, 2000), dim2_cone, resolve),
    ("chi_rank2", (10, 20) if quick else (1000, 2000, 4000),
     lambda n: resolve(cyclic_fan([(1, 0), (1, n), (-1, 0), (0, -1)])), unit_chi),
    ("chi_cube128", (0,) if quick else (40,),
     lambda r: resolve(catalog.cube_fan(), rng=random.Random(5), extra_rounds=r), cube_class_chi),
    ("chi_octahedron", (1,) if quick else (3, 6, 10), octahedron_chi, resolved_chi),
    ("chi_octahedron_warm", (1,) if quick else (3, 6, 10), warm_octahedron_chi, resolved_chi),
    ("gram_cube", (48,) if quick else (48, 128), cube_gram,
     lambda subject: gram_matrix(subject[0].coarse, subject[1], subject[2], resolution=subject[0])),
    ("chi_wps", ((2, 3, 5),) if quick else ((101, 211, 307), (307, 601, 1009)),
     lambda qs: resolve(catalog.weighted_projective_space(qs)), unit_chi),
    ("gkm_violations", (48,), corrupted_cube48, lambda subject: gkm_validate(*subject)),
    ("gkm_report", (10, 20) if quick else (1000, 2000, 4000), moved_unit, lambda subject: gkm_validate(*subject)),
    ("validate_r3", (5, 10) if quick else (50, 100, 200), lambda m: resolve(rank3_cone(m)).fine.to_json(),
     Fan.from_json),
    ("descend_r3", (5, 10) if quick else (50, 100, 200), lambda m: resolve(rank3_cone(m)).to_json(),
     unit_descended),
    ("planless_shuffled", (48,) if quick else (128,), shuffled_octahedron_sum, reduce_localization),
    ("decompose_dependent", (4,) if quick else (4, 8, 16), dependent_cube_basis, refused),
    ("decompose_p1n", (2,) if quick else (2, 3), lambda n: catalog.product_basis(n)[1],
     lambda basis: [decompose(f, basis) for f in basis]),
    ("decompose_wps", ((2, 3, 5),) if quick else ((101, 211, 307), (307, 601, 1009)), wps_divisor_basis,
     lambda subject: decompose(*subject)),
]
repeats = {"chi_octahedron_warm": 101, "chi_octahedron": 31}
for row, sizes, build, run in rows:
    for size in sizes:
        times = []
        for _ in range(1 if quick else repeats.get(row, 3)):
            subject, start = build(size), time.perf_counter()
            run(subject)
            times.append(time.perf_counter() - start)
        print(json.dumps({"row": row, "size": size, "median_s": statistics.median(times),
                          "repeats": len(times)}), flush=True)
