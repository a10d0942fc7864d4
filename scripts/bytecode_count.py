#!/usr/bin/env python3
"""Count the Python bytecodes that resolving fixed fans and pairing on a
resolution run: one JSON line {"case", "bytecodes"} per case (``--quick``:
the first case only).

    PYTHONPATH=src python3 scripts/bytecode_count.py [--quick]

The cases are the A-cones <(1,0),(1,N)> for N = 41 and 86, the rank-3 cone
<e1, e2, (1,11,29)>, ``resolve(cube_fan(), rng=Random(3), extra_rounds=2)``
and the rank-3 fan of the 2-dimensional cone <(1,0,0),(1,29,0)> and the ray
(0,0,1), a chain record split in its cone's frame, as the A-cones are in
the frame of N; each of these counts covers building the fan and resolving
it.  ``chi_octahedron_cold`` and ``chi_octahedron_warm`` count one ``chi`` of
the octahedron class (the line bundle e^(-s e_a) on the cone over the cube
face x_a = s) through ``resolve(cube_fan())``, built outside the count: the
first builds the resolution's series, the second finds them cached.
``chi_octahedron_warm_52`` counts the cached one through the 52-cone
``resolve(cube_fan(), rng=Random(99), extra_rounds=2)``, and
``pair_ray_warm`` one cached ``kronecker_pair`` of that class at the ray
(1,1,1) through ``resolve(cube_fan())``.
``gkm_corrupted_cube48`` counts ``gkm_validate`` of the octahedron class
pulled back to ``resolve(cube_fan())``, its value on cone 0 moved by
e^(1,0,0), on a validated copy of the 48-cone fine fan built outside the
count, so that the walls refuse it and the pass over the star table
reports its violations.
``rank4_1_1_1_13`` resolves the rank-4 cone <e1, e2, e3, (1,1,1,13)> and
``rank4_dim3_1_2_5`` the 3-dimensional cone <(1,0,0,0), (0,1,0,0),
(1,2,5,0)> in rank 4, whose cells are split in its Smith form's frame;
these two also count building the fan.  ``cube_fan_validated`` counts
``catalog.cube_fan()``, the validated ``Fan.build`` of the cube fan.
``chi_octahedron_cold_52`` counts the ``chi`` through the 52-cone
resolution with its series built, and ``pair_ray_cold`` the pairing at the
ray (1,1,1) through ``resolve(cube_fan())`` with its series built.
``stellar_cube_111`` counts ``stellar_subdivision`` of ``catalog.cube_fan()``
at its ray (1,1,1), which pulls the ray into the three non-simplicial cones
holding it, and ``stellar_rank3_mult3`` that of
``catalog.rank3_multiplicity3_fan()`` at (1,1,1), inside its one simplicial
cone, split as a record; both fans are built outside the count.
``tied_20`` resolves the fan on (1,2j) for j = 0..20, (-1,0) and (0,-1), the
``resolve_tied`` row of ``scripts/scale_rows.py`` at M = 20, built validated
outside the count: its 20 cones of multiplicity 2 make it the one case
whose cells are many, where each A-cone case has one.
``series_cold_localize`` counts ``ktheory._pairing_series`` for every
(resolution, face) that perfbench's localize workload pairs on: both cube
resolutions, ``resolve(cube_fan())`` and ``resolve(cube_fan(),
rng=Random(99), extra_rounds=2)``, at the zero face and at the ray
(1,1,1), and the same two resolutions of P(1,1,2) at the three faces of
``catalog.p112_duality_cones``; the fans, the resolutions and each fine
fan's faces and smoothness, which the workload's set-up builds, are built
outside the count, so it counts the cold build of the series, the work of
the workload's first pass that later passes reuse.  It
counts the opcode events under ``sys.settrace`` with ``f_trace_opcodes`` set
on every frame, so it is exact and repeats from run to run, unlike a wall-clock time.  Time
spent in C code is not counted: builtins such as ``sorted``, ``map`` or
``list.index`` and the methods of ``int``, ``tuple``, ``list`` and ``dict``
run no bytecode, so a change that moves work into C lowers the count without
the work going away.
"""
import argparse
import functools
import json
import random
import sys

from pexpfan import catalog, ktheory
from pexpfan.fan import Fan, resolve, stellar_subdivision
from pexpfan.ktheory import chi, kronecker_pair
from pexpfan.laurent import LaurentPoly
from pexpfan.pexp import gkm_validate


def count_bytecodes(run) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def a_cone(n):
    return Fan.build(2, [(1, 0), (1, n)], [(0, 1)])


def tied(m):
    rays = [(1, 2 * j) for j in range(m + 1)] + [(-1, 0), (0, -1)]
    return Fan.build(2, rays, [tuple(sorted((i, (i + 1) % len(rays)))) for i in range(len(rays))])


def octahedron_pair(warm, ray=None, **resolve_kw):
    """The chi of the octahedron class through ``resolve(cube_fan(),
    **resolve_kw)``, or its pairing with the cube fan's ``ray``, with its
    series built first when ``warm``."""
    cube = catalog.cube_fan()
    f, r = catalog.octahedron_class(cube), resolve(cube, **resolve_kw)
    if ray is None:
        run = lambda: chi(cube, f, resolution=r)
    else:
        face = cube.rayset_from_vectors([ray])
        run = lambda: kronecker_pair(cube, f, face, resolution=r)
    if warm:
        run()
    return run


def corrupted_cube48():
    cube = catalog.cube_fan()
    octahedron = catalog.octahedron_class(cube)
    sub = resolve(cube)
    fine = Fan.build(3, sub.fine.rays, sub.fine.maximal_cones)
    values = [octahedron.values[j] for j in sub.assignment]
    values[0] = values[0] * LaurentPoly.exponential((1, 0, 0))
    return lambda: gkm_validate(fine, values)


def localize_series():
    """Every series that perfbench's localize workload builds, on resolutions
    built as its set-up builds them."""
    cube, p112 = catalog.cube_fan(), catalog.weighted_p112()
    faces = {cube: [(), cube.rayset_from_vectors([(1, 1, 1)])], p112: list(catalog.p112_duality_cones(p112))}
    pairs = []
    for fan, paired in faces.items():
        for sub in (resolve(fan), resolve(fan, rng=random.Random(99), extra_rounds=2)):
            sub.fine.is_smooth()
            sub.fine.faces
            pairs += [(sub, face) for face in paired]
    return lambda: [ktheory._pairing_series(sub, face) for sub, face in pairs]


# (case, a function making the call that is counted)
CASES = [
    ("a_cone_41", lambda: lambda: resolve(a_cone(41))),
    ("a_cone_86", lambda: lambda: resolve(a_cone(86))),
    ("rank3_1_11_29", lambda: lambda: resolve(Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, 11, 29)], [(0, 1, 2)]))),
    ("cube_rng3_extra2", lambda: lambda: resolve(catalog.cube_fan(), rng=random.Random(3), extra_rounds=2)),
    ("rank3_dim2_1_29", lambda: lambda: resolve(Fan.build(3, [(1, 0, 0), (1, 29, 0), (0, 0, 1)], [(0, 1), (2,)]))),
    ("chi_octahedron_cold", lambda: octahedron_pair(False)),
    ("chi_octahedron_warm", lambda: octahedron_pair(True)),
    ("rank4_1_1_1_13", lambda: lambda: resolve(Fan.build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 13)],
                                                          [(0, 1, 2, 3)]))),
    ("rank4_dim3_1_2_5", lambda: lambda: resolve(Fan.build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 5, 0)],
                                                            [(0, 1, 2)]))),
    ("chi_octahedron_warm_52", lambda: octahedron_pair(True, rng=random.Random(99), extra_rounds=2)),
    ("pair_ray_warm", lambda: octahedron_pair(True, (1, 1, 1))),
    ("gkm_corrupted_cube48", corrupted_cube48),
    ("cube_fan_validated", lambda: catalog.cube_fan),
    ("chi_octahedron_cold_52", lambda: octahedron_pair(False, rng=random.Random(99), extra_rounds=2)),
    ("pair_ray_cold", lambda: octahedron_pair(False, (1, 1, 1))),
    ("stellar_cube_111", lambda: functools.partial(stellar_subdivision, catalog.cube_fan(), (1, 1, 1))),
    ("stellar_rank3_mult3", lambda: functools.partial(stellar_subdivision, catalog.rank3_multiplicity3_fan(), (1, 1, 1))),
    ("tied_20", lambda: functools.partial(resolve, tied(20))),
    ("series_cold_localize", localize_series),
]

ap = argparse.ArgumentParser(description="Bytecodes executed by resolve on fixed cases.")
ap.add_argument("--quick", action="store_true", help="the first case only")
quick = ap.parse_args().quick
for name, make in CASES[:1] if quick else CASES:
    print(json.dumps({"case": name, "bytecodes": count_bytecodes(make())}), flush=True)
