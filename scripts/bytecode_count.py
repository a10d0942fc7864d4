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
``rank4_1_1_1_13`` resolves the rank-4 cone <e1, e2, e3, (1,1,1,13)> and
``rank4_dim3_1_2_5`` the 3-dimensional cone <(1,0,0,0), (0,1,0,0),
(1,2,5,0)> in rank 4, whose cells are split in its Smith form's frame;
these two also count building the fan.  It
counts the opcode events under ``sys.settrace`` with ``f_trace_opcodes`` set
on every frame, so it is exact and repeats from run to run, unlike a wall-clock time.  Time
spent in C code is not counted: builtins such as ``sorted``, ``map`` or
``list.index`` and the methods of ``int``, ``tuple``, ``list`` and ``dict``
run no bytecode, so a change that moves work into C lowers the count without
the work going away.
"""
import argparse
import json
import random
import sys

from pexpfan import catalog
from pexpfan.fan import Fan, resolve
from pexpfan.ktheory import chi, kronecker_pair
from pexpfan.pexp import CartierData, from_cartier


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


def octahedron_pair(warm, ray=None, **resolve_kw):
    """The chi of the octahedron class through ``resolve(cube_fan(),
    **resolve_kw)``, or its pairing with the cube fan's ``ray``, with its
    series built first when ``warm``."""
    cube = catalog.cube_fan()
    exps = []
    for rs in cube.maximal_cones:
        gens = [cube.rays[i] for i in rs]
        axis = next(a for a in range(3) if len({g[a] for g in gens}) == 1)
        exps.append(tuple(-gens[0][axis] if a == axis else 0 for a in range(3)))
    f, r = from_cartier(cube, CartierData(tuple(exps))), resolve(cube, **resolve_kw)
    if ray is None:
        run = lambda: chi(cube, f, resolution=r)
    else:
        face = cube.rayset_from_vectors([ray])
        run = lambda: kronecker_pair(cube, f, face, resolution=r)
    if warm:
        run()
    return run


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
]

ap = argparse.ArgumentParser(description="Bytecodes executed by resolve on fixed cases.")
ap.add_argument("--quick", action="store_true", help="the first case only")
quick = ap.parse_args().quick
for name, make in CASES[:1] if quick else CASES:
    print(json.dumps({"case": name, "bytecodes": count_bytecodes(make())}), flush=True)
