"""The read-only scripts under scripts/ still run against the package.

scripts/regen_goldens.py is left out: it rewrites tests/golden/.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_weighted_projective_demo_runs():
    proc = run_script("weighted_projective_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "solved dual basis" in proc.stdout


def test_sign_convention_passes_for_plus_one():
    proc = run_script("determine_sign_convention.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("epsilon=+1:") and line.endswith("PASS") for line in lines)
    assert any(line.startswith("epsilon=-1:") and line.endswith("fail") for line in lines)


def test_bench_pairs_refuses_a_checkout_with_bytecode_under_src(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "pkg").mkdir(parents=True)
    (checkout / "src" / "pkg" / "__init__.py").write_text("")
    (checkout / "perfbench").mkdir()
    marker = tmp_path / "perfbench-started"
    (checkout / "perfbench" / "run.py").write_text(
        f"open({str(marker)!r}, 'w').close()\n")
    (checkout / ".gitignore").write_text("__pycache__/\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    subprocess.run(git + ["init", "-q"], cwd=checkout, check=True)
    subprocess.run(git + ["add", "-A"], cwd=checkout, check=True)
    subprocess.run(git + ["commit", "-qm", "checkout"], cwd=checkout, check=True)
    (checkout / "src" / "pkg" / "__pycache__").mkdir()
    (checkout / "src" / "pkg" / "__pycache__" / "__init__.cpython.pyc").write_bytes(b"")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_pairs.py"), str(checkout), str(checkout),
         "--workload", "cli", "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "src/pkg/__pycache__/" in proc.stderr
    assert not marker.exists() and not out.exists()


def test_bench_summary_reads_directions_from_the_benchmark(tmp_path):
    # three pairs, parent first; op_ms_p50 is better lower, the others higher or flat
    ops = {"parent": [10.0, 11.0, 12.0], "change": [12.0, 10.5, 14.0]}
    p50 = {"parent": [100.0, 90.0, 80.0], "change": [90.0, 95.0, 70.0]}
    runs = []
    for i in range(3):
        for side in ("parent", "change"):
            metrics = {name: {"value": 1.0, "unit": "x"}
                       for name in ("setup_s", "op_ms_tail", "peak_rss_mb")}
            metrics["ops_per_s"] = {"value": ops[side][i], "unit": "1/s"}
            metrics["op_ms_p50"] = {"value": p50[side][i], "unit": "ms"}
            runs.append({"side": side, "workload": "cli", "seed": 7, "order": len(runs) + 1,
                         "result": {"correct": True, "attempted": 5, "failed": int(side == "change"),
                                    "metrics": metrics}})
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(runs))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "bench_summary.py"), str(bench)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "# cli seed 7: 3 pairs, failed ops parent 0, change 3" in lines
    rows = {line.split()[2]: line.split() for line in lines if line.startswith("cli ")}
    assert rows["ops_per_s"] == ["cli", "7", "ops_per_s", "higher", "11", "12", "2/3", "1"]
    assert rows["op_ms_p50"] == ["cli", "7", "op_ms_p50", "lower", "90", "90", "2/3", "10"]
    assert rows["setup_s"][3:] == ["lower", "1", "1", "0/3", "0"]
    assert set(rows) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb"}


def _docstring_and_body_lines(path: Path, function: str):
    """(lines of every docstring in the file, lines of the body of ``function``)."""
    tree = ast.parse(path.read_text())
    docs, body = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        if isinstance(node, ast.FunctionDef) and node.name == function:
            body.update(range(node.body[0].lineno, node.end_lineno + 1))
    return docs, body


def test_unreached_lines_lists_what_a_test_file_misses():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "unreached_lines.py"),
         "tests/test_value_classes.py", "-q", "-p", "no:cacheprovider"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("src/pexpfan/"):
            path, lineno, _ = line.split(":", 2)
            listed.setdefault(path, set()).add(int(lineno))
    # the test assigns to a field, which runs the one line of value_class's __setattr__
    _, setattr_body = _docstring_and_body_lines(REPO / "src/pexpfan/lattice.py", "__setattr__")
    assert setattr_body and not setattr_body & listed["src/pexpfan/lattice.py"]
    _, resolve = _docstring_and_body_lines(REPO / "src/pexpfan/chains.py", "resolve")
    assert listed["src/pexpfan/chains.py"] & resolve
    for path, lines in listed.items():
        docs, _ = _docstring_and_body_lines(REPO / path, "")
        assert not lines & docs, path


def test_scale_rows_quick_prints_every_row():
    rows = {
        "complete", "resolve_tied", "resolve_tied_rng1", "resolve_tied3", "resolve_a", "resolve_r3",
        "resolve_r4", "resolve_dim2", "chi_rank2", "chi_cube128", "chi_octahedron", "chi_octahedron_warm",
        "series_cold", "gram_cube", "chi_wps", "gkm_violations", "gkm_report", "validate_r3", "descend_r3",
        "planless_shuffled", "decompose_dependent", "decompose_p1n", "decompose_wps"}
    proc = run_script("scale_rows.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(line) == {"row", "size", "median_s", "repeats"} for line in lines)
    assert all(line["median_s"] >= 0 and line["repeats"] == 1 for line in lines)
    assert {line["row"] for line in lines} == rows
    assert len(lines) == 35
    # this checkout against itself, each side in its own worker: both
    # medians and their ratio on every row and size
    proc = run_script("scale_rows.py", "--quick", "--against", ".")
    assert proc.returncode == 0, proc.stderr
    paired = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(line) == {"row", "size", "median_s", "against_median_s", "ratio", "repeats"} for line in paired)
    assert all(line["median_s"] > 0 and line["against_median_s"] > 0 and line["repeats"] == 1 for line in paired)
    assert all(line["ratio"] == line["median_s"] / line["against_median_s"] for line in paired)
    assert [(line["row"], line["size"]) for line in paired] == [(line["row"], line["size"]) for line in lines]


def test_bytecode_count_repeats_exactly():
    # counts, unlike times, repeat from run to run
    runs = [run_script("bytecode_count.py", "--quick") for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr + runs[1].stderr
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert lines and all(set(line) == {"case", "bytecodes"} and line["bytecodes"] > 0 for line in lines)
    assert runs[0].stdout == runs[1].stdout


def test_import_cost_prints_every_module_and_the_cli_peak():
    proc = run_script("import_cost.py", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    modules = {line["module"]: line["compiled_bytes"] for line in lines[:-1]}
    assert set(modules) == {p.name for p in (REPO / "src" / "pexpfan").glob("*.py")}
    assert all(size > 0 for size in modules.values())
    assert set(lines[-1]) == {"import", "vmhwm_mb", "runs"}
    assert lines[-1]["import"] == "pexpfan.cli" and lines[-1]["vmhwm_mb"] > 0 and lines[-1]["runs"] == 1
