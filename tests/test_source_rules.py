"""Rules on the package source that keep its checks alive under ``python -O``:
no ``assert`` statement (the optimizer strips it) and no ``fractions`` import
(exact work stays in integers and Z[M]).  One rule keeps lattice coordinates
in one place: ``smith_normal_form`` is called only from
``fan.span_coordinates``; another keeps one way to pick a resolve point:
``chains._box_points``, which takes a record's generators and multiplicity, is
called only from ``chains._least_box_point``, no ``_Progression``, ``_least_box_points``,
``_seed_cone_objects``, ``subdivision``, ``_refine``, ``chain_cells`` or
``chain_point`` is defined, and ``chains._Refinement`` keeps no ``stepped``; a
third
keeps one way to pair: ``orbit_closure_class`` has no caller in the
package; a fourth keeps one face enumeration per fan:
``faces_as_generator_subsets`` is called only from ``Fan._star``; a fifth
keeps one reader of embedded fans: only ``pexp_from_json`` reads a fan
document without validating it; a sixth keeps one success document in the
CLI: ``cli.py`` has no ``_render``, no dict with a private ``"_..."`` key,
and builds ``{"status": "ok", ...}`` only in ``run``; a seventh keeps
cone coordinates in ``pexp``: ``ktheory.py`` calls neither ``pullback`` nor
``face_quotient``, and in ``pexp.py`` a face quotient's ``.projection`` is
read only in ``coerce_values`` (the one projector of ambient values) and
``_comparison_matrix``; an
eighth keeps one facet table per cone: ``extreme_rays_of_region`` is called
only from ``Cone.facets`` and ``Fan._check_pair``, ``chains._Refinement``
reads no ``_adjugate``, ``_smallest_face`` or ``_scaled_inverse`` (a
record's smallest face is the support of its coefficients c = S y), and
outside ``Cone`` only ``chains._cell`` reads ``_scaled_inverse``, once per
simplicial cell it makes; a ninth keeps start-up cheap:
no module imports ``dataclasses`` (value classes come from
``lattice.value_class``), and a fresh ``import pexpfan.cli`` loads none of
``dataclasses``, ``inspect``, ``ast`` and ``dis``, nor ``import pexpfan``
``random``; a tenth keeps one JSON
boundary: in ``cli.py`` only ``_decode`` calls ``json.load`` or
``json.loads``, ``cli.py`` does not import ``strict_int``
(``Fan.rayset_from_vectors`` reads a cone), and ``CartierData`` defines no
``from_json``; an eleventh keeps every star sum on its wall plan and
one merge loop: ``ktheory`` reduces only through ``laurent._Plan``, one
that ``ktheory._pairing_series`` compiles per folded group from its fine
cones' weights and runs once, on the walls inside the group, and one it
compiles on the walls between the series' terms, which
``ktheory._star_sum`` runs through ``laurent.reduce_localization``; one
pass over ``fine.star_walls(face)`` hands out the walls, each with the
normal it carries made lexicographically positive as its direction; every
path of ``_fold`` runs a plan, which in ``laurent`` only ``_fold`` runs,
``_merge_rounds`` is called once, by the plan's compiler,
``reduce_localization`` is ``_fold`` and its check, a run whose merges were
narrowed to their walls' directions cancels what is left once at its end,
in the directions its compiler found those merges deferred,
and the greedy pick by denominator overlap is made only in the fallback of
``_Plan.run``, when no wall joins what is left; a twelfth keeps every simplicial cone on its one
adjugate, in one coordinate frame per cone: ``fan.py`` imports ``adjugate``
by name and calls it only in ``Cone._adjugate``, does not import ``prod``,
reads ``Cone._span`` only in ``Cone._coordinates``, and ``span_coordinates``
is called only in ``Cone._span``, ``Fan.face_quotient`` and
``chains._box_points`` (whose residues need the Smith form): a cone takes a
frame, and a fine cone its record's (mult, S) as its ``_adjugate``, only in
``fan._framed``, which ``chains._Refinement.step`` and ``chains._fine_map``
hand a frame from the one table of coarse frames that ``chains.resolve``
and ``chains.stellar_subdivision`` each build once, the only readers of
``_coordinates`` outside ``Cone`` but ``Fan._check_pair``; and
``Cone.facets``
calls ``extreme_rays_of_region`` only in its branch for a non-simplicial
cone; a
thirteenth keeps one Hirzebruch-Jung walk: ``least_chain_points`` is defined
once, in ``chains.py``, and called only from ``_Refinement.least``, which
draws a chain record (a record of at most two generators, whose local
vectors it reads off its S) on it, no ``resolve_rank2``,
``drawn_chain_point`` or ``chain_split`` is defined, and the walk and the
chain record's draw and split name no ``Cone``, adjugate, Smith form or
``Fan``; a fourteenth keeps exact
division to one fill: there is no ``_packed_lines``, only
``laurent._line_sums_vanish`` names the lines e + Z*w, but for the exact count
``_quotient_size``; ``_packed_divide`` sums the lines and then counts only
past the bound of its term budget, ``koszul_divides`` sums them, and every power
``merge`` multiplies a numerator by is positive; a fifteenth keeps one
subdivision loop for every resolve, on one kind of cell: the messages of
its checks appear only in ``chains.subdivide``, which only ``chains.resolve``
calls, with its one ``_Refinement`` and no callable, and ``resolve``
compares no rank; the package calls no ``.index``, ``chains._Refinement``
keeps no ``order``, ``_ids`` or ``cones``, and no ``Cone`` is built for a
record's step, of either kind: ``chains.py`` calls no ``Cone``,
``chains._piece`` names neither ``Cone`` nor ``_framed``, and ``fan.py``
builds one only in ``Cone.from_generators`` and ``_framed``; no
``chain_record`` or ``_by_kind`` is defined, every cell of a maximal cone
is made by ``chains._cell``, named only in ``_cells`` (mapped over every
maximal cone), which only ``resolve`` and ``stellar_subdivision`` call, and
in ``_Refinement.step``, ``_fine_map`` tests no cell's slot 5 for a
``tuple``, and ``_Refinement.least`` and ``split`` pick the chain path by
generator count; ``fan.py`` keeps the geometry: it defines and indexes no
cell, and ends by importing ``resolve`` and ``stellar_subdivision`` from
``chains``, its only import from there; a sixteenth keeps one quotient path:
the package defines no ``star_quotient``, ``span_quotients``,
``unimodular_inverse``, ``NotUnimodular``, ``project_vector`` or
``augment``; a seventeenth keeps resolve on the refinement's own data:
``Cone.from_generators`` is called only from ``Fan.cone_objects`` and
``ktheory._pairing_series`` (the strict-transform face, once per face), so never from
``chains._Refinement``, and ``Fan.build`` is called in ``fan.py`` only from
``Fan.from_json`` and nowhere in ``chains.py``, so no function of the resolve
path calls it; an eighteenth keeps one elimination for linear independence:
no ``_rank_mod_p`` or ``_PRIME`` is defined, no ``pow(..., -1, ...)`` inverts
mod anything outside ``chains.least_chain_points``, ``lattice._eliminate`` is
called only in ``lattice``, and ``extreme_rays_of_region`` and
``ktheory._basis_rows`` take their rows from ``lattice.independent_rows``,
the exact ``matrix_rank`` left only to the rows ``_basis_rows``'s images
do not pick; a nineteenth keeps one GKM reporter: ``pexp._restriction`` is
called only from ``PiecewiseExponential.restrict`` and ``gkm_validate``,
which reads the star table and calls no ``range``; a twentieth keeps one
subdivision check: ``fan._check_subdivision`` is called only from
``SubdivisionMap._check``, which only ``SubdivisionMap.from_json``,
``ktheory.gram_matrix``, ``pexp.pullback`` and ``pexp.descend`` call.
Every name the package exports resolves, and so does every annotation of
a function or method it defines.  The localization oracle in
``tests/oracles.py`` takes from ``pexpfan.laurent`` only the two types, never
the kernel it checks, and the oracles take only public names from
``pexpfan.fan``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import pexpfan

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pexpfan").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_fractions(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"{where}: assert statement"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert all(m.split(".")[0] != "fractions" for m in modules), f"{where}: imports fractions"



def _nodes(node, kind, where=None):
    """(name of the enclosing function, node) for every node of type kind
    below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield where, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _nodes(child, kind, inner)


def _callers(name, keep=lambda call: True):
    """(file name, enclosing function) of every call of ``name`` in the
    package that ``keep`` accepts."""
    callers = set()
    for path in SOURCES:
        for where, call in _nodes(ast.parse(path.read_text(), filename=str(path)), ast.Call):
            if name in (getattr(call.func, "id", None), getattr(call.func, "attr", None)) and keep(call):
                callers.add((path.name, where))
    return callers


def test_smith_form_called_only_from_span_coordinates():
    assert _callers("smith_normal_form") == {("fan.py", "span_coordinates")}


def test_box_points_listed_only_for_the_least_box_points():
    # a record draws its one point in _least_box_point, on one resolve path,
    # from its generators and multiplicity, and a refinement reports its
    # changes only through its step's value
    assert _callers("_box_points") == {("chains.py", "_least_box_point")}
    defined = {node.name for path in SOURCES for _, node in
               _nodes(ast.parse(path.read_text()), (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"_Progression", "_least_box_points", "_seed_cone_objects", "subdivision",
                               "_refine", "chain_cells", "chain_point"})
    chains = ast.parse(next(p for p in SOURCES if p.name == "chains.py").read_text())
    refinement = next(c for _, c in _nodes(chains, ast.ClassDef) if c.name == "_Refinement")
    assert "stepped" not in {a.attr for _, a in _nodes(refinement, ast.Attribute)}
    box_points = next(f for _, f in _nodes(chains, ast.FunctionDef) if f.name == "_box_points")
    assert [a.arg for a in box_points.args.args] == ["generators", "mult"] and not box_points.args.kwonlyargs
    least = next(f for _, f in _nodes(chains, ast.FunctionDef) if f.name == "_least_box_point")
    assert [ast.unparse(c) for _, c in _nodes(least, ast.Call) if ast.unparse(c.func) == "_box_points"] == [
        "_box_points(cell[1], cell[3])"]


def test_orbit_closure_class_has_no_caller_in_the_package():
    # a pairing is a star sum; the Koszul round trip stays a test oracle
    assert _callers("orbit_closure_class") == set()


def test_faces_are_enumerated_only_for_the_star_table():
    # one face enumeration per fan; every face question reads Fan._star
    assert _callers("faces_as_generator_subsets") == {("fan.py", "_star")}


def test_only_the_class_loader_reads_a_fan_document_unvalidated():
    # an unvalidated embedded fan is only ever compared with a validated one
    def unvalidated(call):
        return len(call.args) > 1 or any(k.arg == "validate" for k in call.keywords)
    assert _callers("from_json", unvalidated) == {("pexp.py", "pexp_from_json")}


def test_the_cli_builds_its_success_document_once():
    # handlers return their result and its text form; run wraps the result
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "_render" not in {f.name for _, f in _nodes(tree, ast.FunctionDef)}
    ok, private = set(), []
    for where, d in _nodes(tree, ast.Dict):
        items = {(k.value, getattr(v, "value", None)) for k, v in zip(d.keys, d.values)
                 if isinstance(k, ast.Constant)}
        if ("status", "ok") in items:
            ok.add(where)
        private += [f"{where}: {k!r}" for k, _ in items if isinstance(k, str) and k.startswith("_")]
    assert ok == {"run"}
    assert private == []


def test_cone_coordinates_stay_in_pexp():
    # a pairing indexes fine values by the refinement's assignment
    lifts = _callers("pullback") | _callers("face_quotient")
    assert {c for c in lifts if c[0] == "ktheory.py"} == set()
    path = next(p for p in SOURCES if p.name == "pexp.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = {where for where, a in _nodes(tree, ast.Attribute) if a.attr == "projection"}
    assert readers == {"coerce_values", "_comparison_matrix"}


def test_face_questions_read_the_facet_table():
    # one vertex enumeration per cone, for its facets; every face question of a
    # cone reads them, and a record's smallest face is the support of its
    # coefficients, read off the S it takes from its cone once, in _cell
    assert _callers("extreme_rays_of_region") == {("fan.py", "facets"), ("fan.py", "_check_pair")}
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    refinement = next(c for _, c in _nodes(trees["chains.py"], ast.ClassDef) if c.name == "_Refinement")
    assert [(where, a.attr) for where, a in _nodes(refinement, ast.Attribute)
            if a.attr in ("_adjugate", "_scaled_inverse", "_smallest_face")] == []
    cone = next(c for _, c in _nodes(trees["fan.py"], ast.ClassDef) if c.name == "Cone")
    inside = {id(a) for _, a in _nodes(cone, ast.Attribute)}
    assert [(name, where) for name, tree in trees.items() if name in ("fan.py", "chains.py")
            for where, a in _nodes(tree, ast.Attribute)
            if a.attr == "_scaled_inverse" and id(a) not in inside] == [("chains.py", "_cell")]


def test_no_module_imports_dataclasses():
    importers = set()
    for path in SOURCES:
        for _, node in _nodes(ast.parse(path.read_text(), filename=str(path)), (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.add(f"{path.name}:{node.lineno}")
    assert importers == set()


def test_cli_import_loads_no_code_generation_modules():
    # -S keeps site hooks out, so the check sees only what the package imports
    src = str(SOURCES[0].parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import pexpfan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_import_loads_no_random():
    # only the CLI draws seeded resolutions; the library takes an rng as given
    src = str(SOURCES[0].parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import pexpfan; print('random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_cli_decodes_json_in_one_place():
    # files and --cone share one decoder; the library checks what a cone holds
    decoders = {c for c in _callers("load") | _callers("loads") if c[0] == "cli.py"}
    assert decoders == {("cli.py", "_decode")}
    cli = ast.parse(next(p for p in SOURCES if p.name == "cli.py").read_text())
    assert "strict_int" not in {a.name for _, node in _nodes(cli, ast.ImportFrom) for a in node.names}
    pexp = ast.parse(next(p for p in SOURCES if p.name == "pexp.py").read_text())
    cartier = next(c for _, c in _nodes(pexp, ast.ClassDef) if c.name == "CartierData")
    assert "from_json" not in {f.name for _, f in _nodes(cartier, ast.FunctionDef)}


def test_star_sums_merge_along_their_walls():
    # a series folds along the walls inside its group, on a plan compiled from its
    # fine cones' weights and run once; the sum of a pairing's series is compiled
    # once into a plan on the walls between its terms, each pair of terms with each
    # direction once, however many fine walls repeat it, and every pairing runs that
    # plan through reduce_localization; one pass over the star's walls hands each to
    # its group or to the plan, with the normal the wall table stores as its
    # direction, so a merge tries only the directions of the walls it joins,
    # compiled by the one _merge_rounds call, the compiler's, and a fold whose merges
    # were so narrowed cancels what is left once at its end, in the directions that
    # its compiler found deferred; every fold compiles a
    # plan and runs it, and the greedy pick serves only the run's fallback, when no
    # wall joins what is left
    ktheory = ast.parse(next(p for p in SOURCES if p.name == "ktheory.py").read_text())
    reductions = [(where, ast.unparse(call.func), [ast.unparse(a) for a in call.args])
                  for where, call in _nodes(ktheory, ast.Call)
                  if {getattr(call.func, "id", None), getattr(call.func, "attr", None)}
                  & {"reduce", "reduce_localization", "_fold", "_merge_rounds", "_Plan", "run"}]
    assert reductions == [
        ("_pairing_series", "_Plan", ["fine.rank", "[(None, weights(q)) for q in group]", "inner[a]"]),
        ("_pairing_series", "fold.run", ["[LaurentPoly.one(fine.rank)] * len(group)"]),
        ("_pairing_series", "_Plan", ["fine.rank", "[(num, den) for _, num, den in terms]", "list(between)"]),
        ("_star_sum", "reduce_localization", ["[values[a] for a, _, _ in terms]", "plan"]),
    ]
    series = next(f for _, f in _nodes(ktheory, ast.FunctionDef) if f.name == "_pairing_series")
    loops = [node for _, node in _nodes(series, ast.For) if "star_walls" in ast.unparse(node.iter)]
    assert [(ast.unparse(node.target), ast.unparse(node.iter)) for node in loops] == [
        ("(q, r, u)", "fine.star_walls(face)")]
    assert [ast.unparse(stmt) for stmt in loops[0].body] == [
        "d = max(u, tuple(map(neg, u)))",
        "if slot[q] == slot[r]:\n    inner[owners[q]].append((local[q], local[r], d))\n"
        "else:\n    between[min(slot[q], slot[r]), max(slot[q], slot[r]), d] = None"]
    assert "star_walls" not in ast.unparse(series).replace("fine.star_walls(face)", "", 1)
    laurent = ast.parse(next(p for p in SOURCES if p.name == "laurent.py").read_text())
    run = next(f for _, f in _nodes(laurent, ast.FunctionDef) if f.name == "run")
    finals = [node for _, node in _nodes(run, ast.If) if ast.unparse(node.test) == "self.narrowed"]
    assert [ast.unparse(stmt) for node in finals for stmt in node.body] == ["num = cancel(num, den, self.deferred)"]
    assert [where for where, node in _nodes(laurent, ast.Attribute) if ast.unparse(node) == "self.deferred"
            and isinstance(node.ctx, ast.Store)] == ["__init__"]
    functions = {f.name: f for _, f in _nodes(laurent, ast.FunctionDef)}
    fold = functions["_fold"]
    returns = [ast.unparse(node.value.func) for _, node in _nodes(fold, ast.Return)]
    assert returns == ["plan.run", "_Plan(s.rank, [(None, denom) for _, denom in s.terms], plan).run"]
    assert {where for where, call in _nodes(laurent, ast.Call)
            if ast.unparse(call.func).endswith(".run")} == {"_fold"}
    assert {where for where, call in _nodes(laurent, ast.Call)
            if ast.unparse(call.func) == "_merge_rounds"} == {"__init__"}
    assert [ast.unparse(call.func) for _, call in _nodes(functions["__init__"], ast.Call)].count("_merge_rounds") == 1
    assert [ast.unparse(call.func) for _, call in _nodes(functions["reduce_localization"], ast.Call)
            if ast.unparse(call.func) in ("_fold", "_merge_rounds")] == ["_fold"]
    fallback = next(node for _, node in _nodes(functions["run"], ast.While) if ast.unparse(node.test) == "pending")
    picks = {n.lineno for n in ast.walk(laurent) if ast.unparse(n) == "acc[1].get"}
    assert picks and picks == {n.lineno for stmt in fallback.body for n in ast.walk(stmt)
                               if ast.unparse(n) == "acc[1].get"}


def test_division_names_lines_in_one_pass_and_merges_skip_zero_powers():
    # a line e + Z*w is named by reading the field of w's first nonzero coordinate,
    # ((p >> shift) & mask) // w_i, in the one line-sum pass, and past the bound
    # of the term budget in the exact count of a quotient's terms; a division sums
    # its lines only past that bound, before the count, so that NotDivisible comes
    # before WorkBudgetExceeded, and otherwise fills its quotient in one pass with
    # no per-line lists; a merge raises each side only by what it lacks
    laurent = ast.parse(next(p for p in SOURCES if p.name == "laurent.py").read_text())
    functions = {f.name: f for _, f in _nodes(laurent, ast.FunctionDef)}
    assert "_packed_lines" not in functions
    namers = {where for where, node in _nodes(laurent, ast.BinOp) if isinstance(node.op, ast.FloorDiv)
              and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.BitAnd)}
    assert namers == {"_line_sums_vanish", "_quotient_size"}
    counts = [(where, call) for where, call in _nodes(laurent, ast.Call) if ast.unparse(call.func) == "_quotient_size"]
    sums = [(where, call) for where, call in _nodes(laurent, ast.Call) if ast.unparse(call.func) == "_line_sums_vanish"]
    bound = next(node for _, node in _nodes(functions["_packed_divide"], ast.If)
                 if ast.unparse(node.test) == "len(f) * extent > 2 * TERM_BUDGET")
    assert [where for where, _ in counts] == ["_packed_divide"]
    assert sorted(where for where, _ in sums) == ["_packed_divide", "koszul_divides"]
    guarded = [call for stmt in bound.body for call in ast.walk(stmt) if isinstance(call, ast.Call)]
    assert [ast.unparse(call.func) for call in guarded if call in {c for _, c in counts + sums}] == [
        "_line_sums_vanish", "_quotient_size"]
    merge = functions["merge"]

    def koszul_calls(nodes):
        return [call for node in nodes for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "_packed_times_koszul"]
    guarded = []
    for _, branch in _nodes(merge, ast.If):
        test = branch.test
        for call in koszul_calls(branch.body):
            assert isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.Gt), ast.unparse(test)
            assert ast.unparse(call.args[2]) == f"{ast.unparse(test.left)} - {ast.unparse(test.comparators[0])}"
            guarded.append(call)
    assert guarded and guarded == koszul_calls([merge])


def test_every_simplicial_cone_reads_its_adjugate():
    # every simplicial cone reads dim, multiplicity, facets, the smallest face and the
    # weights off one adjugate in its one coordinate frame: those of N, its Smith
    # form's, or its coarse cone's for a resolve piece, from the caller's one
    # table of frames, handed over only by _framed,
    # which also hands a fine cone its record's (mult, S); the Smith form serves
    # only the frame of a cone below full dimension, a face quotient and the
    # residues of chains._box_points
    fan = ast.parse(next(p for p in SOURCES if p.name == "fan.py").read_text())
    chains = ast.parse(next(p for p in SOURCES if p.name == "chains.py").read_text())
    from_lattice = {a.name for _, node in _nodes(fan, ast.ImportFrom) if node.module == "lattice"
                    for a in node.names}
    assert "adjugate" in from_lattice
    assert {c for c in _callers("adjugate") if c[0] == "fan.py"} == {("fan.py", "_adjugate")}
    imported = {a.name for _, node in _nodes(fan, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert "prod" not in imported
    readers = {where for where, a in _nodes(fan, ast.Attribute) if a.attr == "_span"}
    assert readers == {"_coordinates"}
    assert _callers("span_coordinates") == {("fan.py", "_span"), ("fan.py", "face_quotient"),
                                            ("chains.py", "_box_points")}
    assert {where for where, a in _nodes(chains, ast.Attribute) if a.attr == "_span"} == set()
    handed = [(where, ast.unparse(node)) for tree in (fan, chains) for where, node in _nodes(tree, ast.Assign)
              if any(isinstance(t, ast.Subscript) and ast.unparse(t.slice) in ("'_coordinates'", "'_adjugate'")
                     for t in node.targets)]
    assert handed == [("_framed", "cone.__dict__['_coordinates'] = frame"),
                      ("_framed", "cone.__dict__['_adjugate'] = inverse")]
    frames = {(where, ast.unparse(call.args[2])) for tree in (fan, chains) for where, call in _nodes(tree, ast.Call)
              if getattr(call.func, "id", None) == "_framed"}
    assert frames == {("step", "self.frames[cell[4]]"), ("_fine_map", "frames[s]")}
    # the one table of coarse frames, built once per resolve and stellar subdivision
    cone = next(c for _, c in _nodes(fan, ast.ClassDef) if c.name == "Cone")
    inside = {id(a) for _, a in _nodes(cone, ast.Attribute)}
    assert {where for where, a in _nodes(fan, ast.Attribute)
            if a.attr == "_coordinates" and id(a) not in inside} == {"_check_pair"}
    assert sorted(where for where, a in _nodes(chains, ast.Attribute) if a.attr == "_coordinates") == [
        "resolve", "stellar_subdivision"]
    cone = next(c for _, c in _nodes(fan, ast.ClassDef) if c.name == "Cone")
    facets = next(f for _, f in _nodes(cone, ast.FunctionDef) if f.name == "facets")
    branch = next(node for _, node in _nodes(facets, ast.If)
                  if ast.unparse(node.test) == "self.is_simplicial")

    def enumerations(nodes):
        return {n.lineno for node in nodes for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "extreme_rays_of_region"}
    assert enumerations([facets]) and enumerations([facets]) == enumerations(branch.orelse)


def test_the_chain_walk_is_defined_once_and_needs_no_fan():
    # chain records of every rank read one walk and draw one point, in the
    # one refinement that draws and splits every cell; the walk, the draw and
    # the split of a chain record run on the integers of its S and of the
    # point, with no cone, adjugate, Smith form or fan
    defined = {(path.name, where) for path in SOURCES
               for where, f in _nodes(ast.parse(path.read_text()), ast.FunctionDef)
               if f.name in ("least_chain_points", "resolve_rank2", "drawn_chain_point", "chain_split")}
    assert defined == {("chains.py", None)}
    assert _callers("least_chain_points") == {("chains.py", "least")}
    chains = ast.parse(next(p for p in SOURCES if p.name == "chains.py").read_text())
    refinement = next(c for _, c in _nodes(chains, ast.ClassDef) if c.name == "_Refinement")
    methods = {f.name: f for f in refinement.body if isinstance(f, ast.FunctionDef)}
    walk = next(f for f in chains.body if isinstance(f, ast.FunctionDef) and f.name == "least_chain_points")
    for f in (walk, methods["least"], methods["split"]):
        names = {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(f) if isinstance(n, ast.Attribute)}
        assert names.isdisjoint({"Cone", "Fan", "adjugate", "_adjugate", "_scaled_inverse", "smith_normal_form",
                                 "span_coordinates", "_framed"}), f.name


def test_one_subdivision_loop_checks_every_resolve():
    # one resolve path, with no rank test, runs chains.subdivide, the only
    # place that raises its checks; no cell is found by its position in fan
    # order, and no Cone is built for a record's step, of either kind; every
    # simplicial cell is a record of S, made by _cell from its cone, and a
    # chain record is one of at most two generators
    messages = ("has no parallelepiped points", "multiplicity did not drop", "left a singular cone")
    raisers = {(path.name, where) for path in SOURCES
               for where, c in _nodes(ast.parse(path.read_text()), ast.Constant)
               if isinstance(c.value, str) and any(m in c.value for m in messages)}
    assert raisers == {("chains.py", "subdivide")}
    assert _callers("subdivide") == {("chains.py", "resolve")}
    assert _callers("index") == set()
    fan = ast.parse(next(p for p in SOURCES if p.name == "fan.py").read_text())
    chains = ast.parse(next(p for p in SOURCES if p.name == "chains.py").read_text())
    functions = {f.name: f for _, f in _nodes(chains, ast.FunctionDef)}
    resolve = functions["resolve"]
    assert not [ast.unparse(c) for c in ast.walk(resolve) if isinstance(c, ast.Compare) and "rank" in ast.unparse(c)]
    assert "Cone" not in {getattr(call.func, "id", None) for _, call in _nodes(chains, ast.Call)}
    assert {where for where, call in _nodes(fan, ast.Call)
            if getattr(call.func, "id", None) == "Cone"} == {"from_generators", "_framed"}
    piece = functions["_piece"]
    assert {n.id for n in ast.walk(piece) if isinstance(n, ast.Name)}.isdisjoint({"Cone", "_framed", "_cell"})
    refinement = next(c for _, c in _nodes(chains, ast.ClassDef) if c.name == "_Refinement")
    attributes = {a.attr for _, a in _nodes(refinement, ast.Attribute) if isinstance(a.value, ast.Name)
                  and a.value.id == "self"}
    assert attributes.isdisjoint({"order", "_ids", "cones"})
    defined = {f.name for path in SOURCES for _, f in _nodes(ast.parse(path.read_text()), ast.FunctionDef)}
    assert defined.isdisjoint({"chain_record", "_by_kind"})
    assert {(path.name, where) for path in SOURCES for where, n in _nodes(ast.parse(path.read_text()), ast.Name)
            if n.id == "_cell"} == {("chains.py", "_cells"), ("chains.py", "step")}
    assert _callers("_cells") == {("chains.py", "resolve"), ("chains.py", "stellar_subdivision")}
    assert [ast.unparse(c) for _, c in _nodes(functions["_cells"], ast.Call) if ast.unparse(c.func) == "map"] == [
        "map(_cell, fan.maximal_cones, fan.cone_objects, itertools.repeat(index), itertools.count())"]
    tests = [ast.unparse(n) for n in ast.walk(functions["_fine_map"]) if isinstance(n, ast.Compare)
             or isinstance(n, ast.Call) and ast.unparse(n.func) == "isinstance"]
    assert not [t for t in tests if "tuple" in t]
    # one refinement draws and splits every cell, telling a chain record by
    # its generator count alone, and the loop is handed it and no callable
    methods = {f.name: f for f in refinement.body if isinstance(f, ast.FunctionDef)}
    for name in ("least", "split"):
        assert [ast.unparse(n) for n in ast.walk(methods[name]) if isinstance(n, ast.Compare)][0] == (
            "len(cell[1]) > 2"), name
    assert [a.arg for a in functions["subdivide"].args.args] == ["first", "ref", "rng", "extra_rounds"]
    calls = [call for _, call in _nodes(chains, ast.Call) if ast.unparse(call.func) == "subdivide"]
    assert [[ast.unparse(a) for a in call.args] for call in calls] == [["cells[0]", "ref", "rng", "extra_rounds"]]
    assert not calls[0].keywords and not [n for n in ast.walk(resolve) if isinstance(n, ast.Lambda)]


def test_fan_keeps_the_geometry_and_re_exports_resolution():
    # every function that reads or writes a cell lives in chains.py; fan.py
    # defines none, indexes none, and ends by re-exporting resolve and
    # stellar_subdivision, so that fan.resolve, fan.stellar_subdivision and
    # fan.smith_normal_form stay bound for every caller
    fan = ast.parse(next(p for p in SOURCES if p.name == "fan.py").read_text())
    defined = {node.name for _, node in _nodes(fan, (ast.FunctionDef, ast.ClassDef))}
    moved = {"_cell", "_cells", "_piece", "_Refinement", "_box_points", "_least_box_point", "_fine_map",
             "resolve", "stellar_subdivision", "subdivide", "fan_order", "linked", "local_coordinates"}
    assert defined and defined.isdisjoint(moved)
    names = {n.id for n in ast.walk(fan) if isinstance(n, ast.Name)} | {
        a.arg for n in ast.walk(fan) if isinstance(n, ast.arguments) for a in n.args + n.kwonlyargs}
    assert names.isdisjoint({"cell", "cells", "first", "replaced"})
    from_chains = [ast.unparse(node) for _, node in _nodes(fan, ast.ImportFrom) if node.module == "chains"]
    assert from_chains == ["from .chains import resolve, stellar_subdivision"]
    assert ast.unparse(fan.body[-1]) == from_chains[0]
    import pexpfan.chains
    import pexpfan.fan
    assert pexpfan.fan.resolve is pexpfan.chains.resolve
    assert pexpfan.fan.stellar_subdivision is pexpfan.chains.stellar_subdivision
    assert pexpfan.fan.smith_normal_form is pexpfan.lattice.smith_normal_form


def test_no_second_quotient_path_and_no_unused_helpers():
    # a face quotient reads its span basis off the Smith form's V and D, and
    # no star quotient of N, inverse of U or coefficient sum is kept
    defined = {node.name for path in SOURCES for _, node in
               _nodes(ast.parse(path.read_text()), (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"star_quotient", "span_quotients", "unimodular_inverse", "NotUnimodular",
                               "project_vector", "augment"})


def test_resolve_builds_its_pieces_and_fine_fan_from_its_own_data():
    # a piece's rays are already its primitive extreme rays, and a
    # refinement's fine fan needs none of the JSON-boundary checks: neither
    # fan.py's geometry nor chains.py's cells build a fan but from JSON
    assert _callers("from_generators") == {("fan.py", "cone_objects"), ("ktheory.py", "_pairing_series")}
    assert {caller for caller in _callers("build") if caller[0] in ("fan.py", "chains.py")} == {
        ("fan.py", "from_json")}


def test_one_elimination_decides_linear_independence():
    # independent rows are the pivots of the one Bareiss elimination; no
    # elimination mod a prime is kept beside it
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    names = {node.id for tree in trees.values() for _, node in _nodes(tree, ast.Name)}
    defined = {node.name for tree in trees.values() for _, node in _nodes(tree, ast.FunctionDef)}
    assert "_rank_mod_p" not in defined and "_PRIME" not in names
    inverses = {(name, where) for name, tree in trees.items() for where, call in _nodes(tree, ast.Call)
                if getattr(call.func, "id", None) == "pow" and len(call.args) == 3
                and ast.unparse(call.args[1]) == "-1"}
    assert inverses == {("chains.py", "least_chain_points")}
    assert {name for name, _ in _callers("_eliminate")} == {"lattice.py"}
    assert _callers("independent_rows") == {("fan.py", "extreme_rays_of_region"), ("ktheory.py", "_basis_rows")}
    assert _callers("matrix_rank") == {("ktheory.py", "_basis_rows")}


def test_gkm_violations_are_read_from_the_star_table():
    # one pass over the faces, each cone of a star restricted once; no loop
    # over the pairs of maximal cones and no (cone, face) cache
    assert _callers("_restriction") == {("pexp.py", "restrict"), ("pexp.py", "gkm_validate")}
    pexp = ast.parse(next(p for p in SOURCES if p.name == "pexp.py").read_text())
    gkm = next(f for _, f in _nodes(pexp, ast.FunctionDef) if f.name == "gkm_validate")
    assert "_star" in {a.attr for _, a in _nodes(gkm, ast.Attribute)}
    assert "range" not in {getattr(c.func, "id", None) for _, c in _nodes(gkm, ast.Call)}


def test_a_hand_built_map_is_checked_in_one_place():
    # the maps the package builds are marked; the rest pay one check
    assert _callers("_check_subdivision") == {("fan.py", "_check")}
    assert _callers("_check") == {("fan.py", "from_json"), ("ktheory.py", "gram_matrix"),
                                  ("pexp.py", "pullback"), ("pexp.py", "descend")}


def test_every_exported_name_resolves():
    missing = [name for name in pexpfan.__all__ if not hasattr(pexpfan, name)]
    assert missing == []


def test_every_annotation_resolves():
    # typing.get_type_hints reads every function and method the package
    # defines: annotations name only what their modules import
    import importlib
    import inspect
    import typing

    def defined(namespace, module):
        for value in vars(namespace).values():
            value = getattr(value, "__func__", getattr(value, "fget", getattr(value, "func", value)))
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield value
            elif inspect.isclass(value):
                yield from defined(value, module)

    functions = [f for path in SOURCES if path.stem != "__main__"
                 for f in defined(*[importlib.import_module(f"pexpfan.{path.stem}")] * 2)]
    unresolved = []
    for f in functions:
        try:
            typing.get_type_hints(f)
        except NameError as error:
            unresolved.append((f.__qualname__, str(error)))
    assert len(functions) > 200 and unresolved == []


def test_oracles_import_only_the_laurent_types():
    path = Path(__file__).parent / "oracles.py"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        where = f"oracles.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("pexpfan.laurent") for a in node.names), where
        elif isinstance(node, ast.ImportFrom) and node.module == "pexpfan":
            assert "laurent" not in {a.name for a in node.names}, where
        elif isinstance(node, ast.ImportFrom) and node.module == "pexpfan.laurent":
            assert {a.name for a in node.names} <= {"LaurentPoly", "LocalizationSum"}, where


def test_oracles_take_only_public_fan_names():
    # the all-Cone resolve oracle keeps its own copy of the path it replays,
    # so a change to fan's private resolve code cannot change the oracle too
    path = Path(__file__).parent / "oracles.py"
    names = {a.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "pexpfan.fan" for a in node.names}
    assert names and not [n for n in names if n.startswith("_")]
