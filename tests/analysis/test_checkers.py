"""Checker tests over the planted-violation fixture corpus.

Every violating line in ``fixtures/`` carries a ``# PLANT: <code>``
marker (``x<n>`` when one line yields several findings of that code).
The tests derive the expected ``(file, line, code)`` multiset from the
markers and require the lint report to match it *exactly* — no missed
plants, no spurious findings, correct anchor lines.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_lint
from repro.analysis.engine import BatchTwin, Pragma, parse_pragmas

FIXTURES = Path(__file__).parent / "fixtures"

_MARKER = re.compile(r"#\s*PLANT:\s*(REP\d{3})(?:\s*x(\d+))?")

DIRTY_BY_RULE = {
    "REP001": "dtype_dirty.py",
    "REP002": "lock_dirty.py",
    "REP003": "hotpath_dirty.py",
    "REP004": "contract_dirty.py",
    "REP005": "persistence_dirty.py",
    "REP006": "lockorder_dirty.py",
    "REP007": "dtypeflow_dirty.py",
    "REP008": "lifecycle_dirty.py",
}
CLEAN_TWINS = (
    "dtype_clean.py",
    "lock_clean.py",
    "hotpath_clean.py",
    "contract_clean.py",
    "persistence_clean.py",
    "lockorder_clean.py",
    "dtypeflow_clean.py",
    "lifecycle_clean.py",
)


def fixture_config() -> LintConfig:
    return LintConfig(
        root=FIXTURES,
        dtype_modules=(
            "dtype_clean.py",
            "dtype_dirty.py",
            "dtypeflow_clean.py",
            "dtypeflow_dirty.py",
        ),
        lock_modules=(
            "lock_clean.py",
            "lock_dirty.py",
            "lockorder_clean.py",
            "lockorder_dirty.py",
        ),
        batch_twins=(
            BatchTwin("contract_dirty.py", "scalar_fn", "scalar_fn_batch"),
            BatchTwin("contract_dirty.py", "other_fn", "other_fn_batch"),
            BatchTwin("contract_clean.py", "scale_rows", "scale_rows_batch"),
        ),
        persistence_modules=("persistence_clean.py", "persistence_dirty.py"),
        lifecycle_modules=("lifecycle_clean.py", "lifecycle_dirty.py"),
        baseline_path=None,
    )


def planted_expectations() -> Counter:
    expected: Counter = Counter()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            match = _MARKER.search(line)
            if match:
                expected[(path.name, lineno, match.group(1))] += int(match.group(2) or 1)
    return expected


@pytest.fixture(scope="module")
def report():
    return run_lint(fixture_config())


def test_fixture_corpus_is_nonempty():
    expected = planted_expectations()
    assert expected, "fixture corpus lost its PLANT markers"
    assert set(DIRTY_BY_RULE) == {code for (_, _, code) in expected}


def test_planted_violations_detected_exactly(report):
    actual = Counter((f.file, f.line, f.code) for f in report.new)
    assert actual == planted_expectations()


def test_clean_twins_have_no_findings(report):
    clean_hits = [f for f in report.new if f.file in CLEAN_TWINS]
    assert clean_hits == []


@pytest.mark.parametrize("code,filename", sorted(DIRTY_BY_RULE.items()))
def test_each_dirty_twin_trips_only_its_rule(report, code, filename):
    codes_in_file = {f.code for f in report.new if f.file == filename}
    assert codes_in_file == {code}


def test_lint_ok_suppresses_inline(report):
    # dtype_dirty.suppressed_promotion carries `# lint-ok: REP001`.
    suppressed_lines = [
        lineno
        for lineno, line in enumerate(
            (FIXTURES / "dtype_dirty.py").read_text(encoding="utf-8").splitlines(), 1
        )
        if "lint-ok" in line
    ]
    assert suppressed_lines, "fixture lost its lint-ok line"
    flagged = {f.line for f in report.new if f.file == "dtype_dirty.py"}
    assert not flagged.intersection(suppressed_lines)


def test_findings_carry_messages_and_sort(report):
    assert all(f.message for f in report.new)
    keys = [(f.file, f.line) for f in report.new]
    assert keys == sorted(keys)


# ----------------------------------------------------------- pragma parsing
def test_parse_pragmas_grammar():
    source = (
        "x = 1  # guarded-by: _lock, _arrivals\n"
        "def f():  # unguarded-ok: strict\n"
        "    pass\n"
        "def g(\n"
        "    a,\n"
        "):  # hot-path\n"
        "    for i in a:  # loop-ok: per chunk\n"
        "        pass\n"
        "y = '# guarded-by: not_a_pragma'\n"
        "z = 2  # lint-ok\n"
        "# the hot-path is described here, prose does not match\n"
        "# lock-order: _meta < _data, _meta < _log\n"
        "h = open('x')  # lifecycle-ok: ownership transfers\n"
    )
    pragmas = {(p.kind, p.line): p for p in parse_pragmas(source)}
    assert pragmas[("guarded-by", 1)].args == ("_lock", "_arrivals")
    assert pragmas[("unguarded-ok", 2)].args == ("strict",)
    assert ("hot-path", 6) in pragmas  # on the closing line of a multi-line header
    assert pragmas[("loop-ok", 7)].reason == "per chunk"
    assert pragmas[("lint-ok", 10)].args == ()
    assert pragmas[("lock-order", 12)].args == ("_meta", "_data", "_meta", "_log")
    assert pragmas[("lifecycle-ok", 13)].reason == "ownership transfers"
    # Strings and prose must not parse as pragmas.
    assert not any(p.line in (9, 11) for p in pragmas.values())
    assert isinstance(next(iter(pragmas.values())), Pragma)


# ------------------------------------------------- real-repo annotations
def test_real_scheduler_and_registry_declarations_present():
    """The satellite-audit pragmas on the threaded modules must not rot."""
    import ast

    from repro.analysis.engine import default_config, load_module
    from repro.analysis.lock_discipline import collect_guarded_declarations

    config = default_config()
    scheduler = load_module(config.root, config.root / "core" / "scheduler.py")
    cls = next(
        n for n in ast.walk(scheduler.tree)
        if isinstance(n, ast.ClassDef) and n.name == "FleetScheduler"
    )
    guarded = collect_guarded_declarations(scheduler, cls)
    assert set(guarded) == {
        "_pending", "_active_ids", "_unresolved", "_closed", "_paused", "_corrupted",
        # Serving/latency state added with the deadline policy (PR 10).
        "_streams", "_free_slots", "_dispatch_latencies", "_complete_latencies",
        "_deadline_misses", "_batch_windows",
    }
    assert all(locks == frozenset({"_lock", "_arrivals", "_resolved"}) for locks in guarded.values())

    platform = load_module(config.root, config.root / "hw" / "platform.py")
    registry = next(
        n for n in ast.walk(platform.tree)
        if isinstance(n, ast.ClassDef) and n.name == "CostTableRegistry"
    )
    guarded = collect_guarded_declarations(platform, registry)
    assert set(guarded) == {"_tables"}


def test_real_hot_path_marks_present():
    from repro.analysis.engine import default_config, iter_python_files, load_module

    config = default_config()
    marked = 0
    for path in iter_python_files(config.root):
        module = load_module(config.root, path)
        marked += len(module.pragmas.all("hot-path"))
    assert marked >= 10, f"hot-path annotations dropped to {marked}"
