"""Batch command-line front end.

Reads fans and piecewise exponential functions from JSON files, runs one
computation per invocation, and writes a canonical JSON (or aligned text)
document to stdout.  Exit codes: 0 on success, 2 when a well-posed check
returns a mathematical negative (GKM violation, non-descendable function,
class outside a span, invalid fan under ``validate-fan``), 1 for structural
problems (missing files, malformed JSON, rank mismatches), for work past
its budget (``WorkBudgetExceeded``) and for a failed check of a computed
result (``ResultCheckFailed``, a defect rather than bad input); every
failure still writes a status document.  A success writes
``{"status": "ok", "result": ...}``, or under ``--format text`` the result's
text form where it has one (``restrict``, ``chi``, ``pair``, ``gram``,
``decompose``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import errors
from .fan import Fan, SubdivisionMap, resolve
from .ktheory import decompose, dual_basis_solve, gram_matrix, kronecker_pair
from .lattice import strict_list
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


def _error(kind: str, detail: str) -> dict:
    return {"status": "error", "kind": kind, "detail": detail}


def _decode(text: str, where: str):
    """The JSON value in ``text``.  Malformed JSON, a repeated key and too deep
    a nesting are each a kind ``json`` failure whose detail starts with ``where``."""
    def unique_keys(pairs):
        # json keeps the last of repeated keys; refuse them like malformed JSON
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CliFailure(1, _error("json", f"{where}: repeated key {key!r}"))
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise CliFailure(1, _error("json", f"{where}: {exc}"))
    except RecursionError:
        # the decoder recurses once per level, so a deep enough document overflows the stack
        raise CliFailure(1, _error("json", f"{where}: JSON nested too deeply"))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliFailure(1, _error("io", str(exc)))
    return _decode(text, path)


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


def _load_cones(fan: Fan, path: str) -> list[tuple[int, ...]]:
    return [fan.rayset_from_vectors(c) for c in strict_list(_load_json(path), "cones")]


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


# -- command handlers: each returns its result and the result's text form,
# or None where it has none; ``run`` wraps the result in the status document


def _poly_result(value) -> tuple:
    return poly_to_json(value), format_poly(value)


def _cmd_validate_fan(args) -> tuple:
    try:
        fan = _load_fan(args.fan)
    except FAN_VALIDATION_ERRORS as exc:
        raise CliFailure(2, {"status": "invalid", "kind": type(exc).__name__, "detail": str(exc)})
    return fan.to_json(), None


def _cmd_resolve(args) -> tuple:
    fan = _load_fan(args.fan)
    rng = random.Random(args.seed) if args.seed is not None else None
    return resolve(fan, rng=rng, extra_rounds=args.extra_rounds).to_json(), None


def _cmd_gkm_check(args) -> tuple:
    fan = _load_fan(args.fan) if args.fan else None
    return pexp_to_json(_load_pexp(args.pexp, fan)), None


def _cmd_restrict(args) -> tuple:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    return _poly_result(f.restrict(fan.rayset_from_vectors(_decode(args.cone, "--cone"))))


def _cmd_pair(args) -> tuple:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    return _poly_result(kronecker_pair(fan, f, fan.rayset_from_vectors(_decode(args.cone, "--cone"))))


def _cmd_gram(args) -> tuple:
    fan = _load_fan(args.fan)
    fns = _load_pexp_list(args.functions, fan)
    m = gram_matrix(fan, fns, _load_cones(fan, args.cones))
    rows = zip(m.row_labels, m.entries)
    table = [["", *m.col_labels], *([label, *map(format_poly, row)] for label, row in rows)]
    return m.to_json(), "\n".join(map("\t".join, table))


def _cmd_decompose(args) -> tuple:
    fan = _load_fan(args.fan)
    f = _load_pexp(args.pexp, fan)
    coeffs = decompose(f, _load_pexp_list(args.basis, fan))
    return {"coefficients": [poly_to_json(c) for c in coeffs]}, "\n".join(map(format_poly, coeffs))


def _cmd_dual_basis(args) -> tuple:
    fan = _load_fan(args.fan)
    spanning = _load_pexp_list(args.spanning, fan)
    duals = dual_basis_solve(fan, _load_cones(fan, args.cones), spanning)
    return {"functions": [pexp_to_json(g) for g in duals]}, None


def _cmd_descend(args) -> tuple:
    sub = SubdivisionMap.from_json(_load_json(args.map))
    f = _load_pexp(args.pexp, sub.fine)
    try:
        g = descend(f, sub)
    except errors.NotDescendable as exc:
        raise CliFailure(2, {
            "status": "negative", "kind": "NotDescendable", "coarse_cone": exc.coarse_index,
            "value_a": poly_to_json(exc.value_a), "value_b": poly_to_json(exc.value_b),
        })
    return pexp_to_json(g), None


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
    add("chi", _cmd_pair, "--fan", "--pexp").set_defaults(cone="[]")  # chi pairs with the zero cone
    add("pair", _cmd_pair, "--fan", "--pexp", "--cone")
    add("gram", _cmd_gram, "--fan", "--functions", "--cones")
    add("decompose", _cmd_decompose, "--fan", "--pexp", "--basis")
    add("dual-basis", _cmd_dual_basis, "--fan", "--spanning", "--cones")
    add("descend", _cmd_descend, "--map", "--pexp")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = None
    try:
        result, text = args.handler(args)
        doc, code = {"status": "ok", "result": result}, 0
    except CliFailure as exc:
        doc, code = exc.doc, exc.code
    except errors.MathNegative as exc:
        doc, code = {"status": "negative", "kind": type(exc).__name__, "detail": str(exc)}, 2
    except (errors.StructuralError, errors.ResultCheckFailed, errors.WorkBudgetExceeded, ValueError) as exc:
        doc, code = _error(type(exc).__name__, str(exc)), 1
    if args.format == "json" or text is None:
        text = json.dumps(doc, indent=2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:  # the status document goes to stdout instead
            text, code = json.dumps(_error("io", str(exc)), indent=2), 1
    sys.stdout.write(text + "\n")
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
