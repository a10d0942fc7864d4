"""Batch command-line front end.

Reads fans and piecewise exponential functions from JSON files, runs one
computation per invocation, and writes a canonical JSON (or aligned text)
document to stdout.  Exit codes: 0 on success, 2 when a well-posed check
returns a mathematical negative (GKM violation, non-descendable function,
class outside a span, invalid fan under ``validate-fan``), 1 for structural
problems (missing files, malformed JSON, rank mismatches) and for a failed
check of a computed result (``ResultCheckFailed``, a defect rather than bad
input); every failure still writes a status document.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import errors
from .fan import Fan, SubdivisionMap, resolve
from .ktheory import chi, decompose, dual_basis_solve, gram_matrix, kronecker_pair
from .lattice import strict_int, strict_list
from .laurent import format_poly, poly_to_json
from .pexp import PiecewiseExponential, descend, pexp_from_json, pexp_to_json

FAN_VALIDATION_ERRORS = (
    errors.NotAFan,
    errors.NotStronglyConvex,
    errors.NonPrimitiveRay,
)


class CliFailure(Exception):
    def __init__(self, code: int, doc: dict):
        self.code = code
        self.doc = doc
        super().__init__(doc.get("detail", "command failed"))


def _load_json(path: str):
    def unique_keys(pairs):
        # json keeps the last of repeated keys; refuse them like malformed JSON
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CliFailure(1, {
                    "status": "error", "kind": "json",
                    "detail": f"{path}: repeated key {key!r}",
                })
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise CliFailure(1, {"status": "error", "kind": "io", "detail": str(exc)})
    except json.JSONDecodeError as exc:
        raise CliFailure(
            1, {"status": "error", "kind": "json", "detail": f"{path}: {exc}"}
        )


def _load_fan(path: str) -> Fan:
    return Fan.from_json(_load_json(path))


def _pexp_from_doc(obj, base_dir: str, fan: Fan | None) -> PiecewiseExponential:
    """The function a decoded document describes, with a path-valued fan read
    relative to ``base_dir``; a GKM violation is exit 2."""
    if isinstance(obj, dict) and isinstance(obj.get("fan"), str):
        obj = dict(obj, fan=_load_json(os.path.join(base_dir, obj["fan"])))
        if not isinstance(obj["fan"], dict):  # a path or null read from a file is no fan
            raise ValueError("fan JSON needs 'rank', 'rays', and 'max_cones'")
    try:
        return pexp_from_json(obj, fan)
    except errors.GkmViolationError as exc:
        raise CliFailure(2, _violation_doc(exc.violations))


def _load_pexp(path: str, fan: Fan | None) -> PiecewiseExponential:
    return _pexp_from_doc(_load_json(path), os.path.dirname(path), fan)


def _load_pexp_list(path: str, fan: Fan | None) -> list[PiecewiseExponential]:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise ValueError(f"{path}: expected a JSON array of functions")
    return [_pexp_from_doc(item, os.path.dirname(path), fan) for item in obj]


def _parse_cone(fan: Fan, spec) -> tuple[int, ...]:
    """The cone of the fan with the generators in the decoded JSON ``spec``."""
    if not isinstance(spec, list):
        raise ValueError("a cone is a JSON array of generator coordinate arrays")
    return fan.rayset_from_vectors([
        tuple(strict_int(x, "cone coordinate") for x in strict_list(v, "cone generator"))
        for v in spec
    ])


def _load_cones(fan: Fan, path: str) -> list[tuple[int, ...]]:
    return [_parse_cone(fan, c) for c in strict_list(_load_json(path), "cones")]


def _violation_doc(violations) -> dict:
    return {
        "status": "violation",
        "kind": "gkm",
        "violations": [
            {
                "cone_a": v.cone_a,
                "cone_b": v.cone_b,
                "face": list(v.face),
                "restriction_a": poly_to_json(v.restriction_a),
                "restriction_b": poly_to_json(v.restriction_b),
            }
            for v in violations
        ],
    }


# -- command handlers -------------------------------------------------------


def _cmd_validate_fan(args) -> dict:
    try:
        fan = _load_fan(args.fan)
    except FAN_VALIDATION_ERRORS as exc:
        raise CliFailure(
            2,
            {"status": "invalid", "kind": type(exc).__name__, "detail": str(exc)},
        )
    return {"status": "ok", "result": fan.to_json()}


def _cmd_resolve(args) -> dict:
    fan = _load_fan(args.fan)
    rng = random.Random(args.seed) if args.seed is not None else None
    sub = resolve(fan, rng=rng, extra_rounds=args.extra_rounds)
    return {"status": "ok", "result": sub.to_json()}


def _cmd_gkm_check(args) -> dict:
    fan = _load_fan(args.fan) if args.fan else None
    return {"status": "ok", "result": pexp_to_json(_load_pexp(args.pexp, fan))}


def _cmd_restrict(args) -> dict:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    rayset = _parse_cone(fan, json.loads(args.cone))
    value = f.restrict(rayset)
    return {"status": "ok", "result": poly_to_json(value), "_poly": value}


def _cmd_chi(args) -> dict:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    value = chi(fan, f)
    return {"status": "ok", "result": poly_to_json(value), "_poly": value}


def _cmd_pair(args) -> dict:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    rayset = _parse_cone(fan, json.loads(args.cone))
    value = kronecker_pair(fan, f, rayset)
    return {"status": "ok", "result": poly_to_json(value), "_poly": value}


def _cmd_gram(args) -> dict:
    fan = _load_fan(args.fan)
    fns = _load_pexp_list(args.functions, fan)
    raysets = _load_cones(fan, args.cones)
    matrix = gram_matrix(fan, fns, raysets)
    return {"status": "ok", "result": matrix.to_json(), "_matrix": matrix}


def _cmd_decompose(args) -> dict:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    basis = _load_pexp_list(args.basis, fan)
    coeffs = decompose(f, basis)
    return {
        "status": "ok",
        "result": {"coefficients": [poly_to_json(c) for c in coeffs]},
        "_polys": list(coeffs),
    }


def _cmd_dual_basis(args) -> dict:
    fan = _load_fan(args.fan)
    spanning = _load_pexp_list(args.spanning, fan)
    raysets = _load_cones(fan, args.cones)
    duals = dual_basis_solve(fan, raysets, spanning)
    return {
        "status": "ok",
        "result": {"functions": [pexp_to_json(g) for g in duals]},
    }


def _cmd_descend(args) -> dict:
    sub = SubdivisionMap.from_json(_load_json(args.map))
    f = _load_pexp(args.pexp, sub.fine)
    try:
        g = descend(f, sub)
    except errors.NotDescendable as exc:
        raise CliFailure(
            2,
            {
                "status": "negative",
                "kind": "NotDescendable",
                "coarse_cone": exc.coarse_index,
                "value_a": poly_to_json(exc.value_a),
                "value_b": poly_to_json(exc.value_b),
            },
        )
    return {"status": "ok", "result": pexp_to_json(g)}


def _render(doc: dict, fmt: str) -> str:
    if fmt == "text":
        if "_poly" in doc:
            return format_poly(doc["_poly"]) + "\n"
        if "_polys" in doc:
            return "\n".join(format_poly(p) for p in doc["_polys"]) + "\n"
        if "_matrix" in doc:
            m = doc["_matrix"]
            lines = ["\t" + "\t".join(m.col_labels)]
            for label, row in zip(m.row_labels, m.entries):
                lines.append(label + "\t" + "\t".join(format_poly(x) for x in row))
            return "\n".join(lines) + "\n"
    clean = {k: v for k, v in doc.items() if not k.startswith("_")}
    return json.dumps(clean, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pexpfan",
        description="exact computations with piecewise exponential functions on fans",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("-o", "--output", help="write the result document to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *required):
        p = sub.add_parser(name, parents=[common])
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(handler=handler)
        return p

    add("validate-fan", _cmd_validate_fan, "--fan")
    p = add("resolve", _cmd_resolve, "--fan")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--extra-rounds", type=int, default=0)
    p = add("gkm-check", _cmd_gkm_check)
    p.add_argument("--fan")
    p.add_argument("--pexp", required=True)
    add("restrict", _cmd_restrict, "--fan", "--pexp", "--cone")
    add("chi", _cmd_chi, "--fan", "--pexp")
    add("pair", _cmd_pair, "--fan", "--pexp", "--cone")
    add("gram", _cmd_gram, "--fan", "--functions", "--cones")
    add("decompose", _cmd_decompose, "--fan", "--pexp", "--basis")
    add("dual-basis", _cmd_dual_basis, "--fan", "--spanning", "--cones")
    add("descend", _cmd_descend, "--map", "--pexp")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
        code = 0
    except CliFailure as exc:
        doc, code = exc.doc, exc.code
    except errors.MathNegative as exc:
        doc, code = (
            {"status": "negative", "kind": type(exc).__name__, "detail": str(exc)},
            2,
        )
    except (errors.StructuralError, errors.ResultCheckFailed, ValueError) as exc:
        doc, code = (
            {"status": "error", "kind": type(exc).__name__, "detail": str(exc)},
            1,
        )
    text = _render(doc, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
