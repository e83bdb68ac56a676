"""The invariant linter (src/repro/lint): rules, baseline, parity pairs.

Fixture files are built in memory through :class:`SourceFile`, so each
rule's trigger/suppression behaviour is pinned without touching the real
tree; the meta-test at the bottom then lints the live ``src/repro``
package and requires it clean modulo the checked-in baseline.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.baseline import (
    apply_baseline,
    finding_key,
    load_baseline,
    write_baseline,
)
from repro.lint.framework import (
    LintError,
    LintRun,
    Rule,
    SourceFile,
    collect_files,
    find_repo_root,
    register_rule,
    resolve_rules,
    rule_catalog,
    run_rules,
)
from repro.lint.parity import (
    ParityPair,
    fingerprint_source,
    split_reference,
)
from repro.lint.parity_pairs import PARITY_PAIRS
from repro.lint.rules.dependencies import declared_dependencies
from repro.lint.rules.parity_rule import check_pairs
from repro.lint.rules.registry_docs import (
    check_family_moves,
    check_scenario_docs,
    check_tolerance_tables,
    declared_table_keys,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(rel: str, text: str, codes):
    """Run the selected rules over one in-memory file."""
    source = SourceFile(rel, text)
    run = run_rules([source], resolve_rules(list(codes)))
    return run.findings


# --------------------------------------------------------------------------- #
# Framework
# --------------------------------------------------------------------------- #
def test_rule_catalog_contains_the_documented_families():
    codes = {rule.code for rule in rule_catalog()}
    assert {"D001", "D002", "D003", "U101", "R201", "R202"} <= codes


def test_duplicate_rule_code_is_a_registration_error():
    with pytest.raises(LintError, match="already registered"):

        @register_rule
        class Duplicate(Rule):  # noqa: F811 -- never referenced again
            code = "D001"


def test_unknown_rule_code_is_a_usage_error():
    with pytest.raises(LintError, match="unknown rule"):
        resolve_rules(["Z999"])


def test_syntax_errors_surface_as_e999_findings():
    findings = lint_source("src/repro/sim/broken.py", "def f(:\n", ["D001"])
    assert [f.rule for f in findings] == ["E999"]


def test_blanket_suppression_silences_every_rule_on_the_line():
    text = "import random\nx = random.random()  # repro: ignore\n"
    assert lint_source("src/repro/sim/x.py", text, ["D001"]) == []


def test_targeted_suppression_only_silences_the_named_rule():
    hit = "import random\nx = random.random()  # repro: ignore[D002]\n"
    assert [f.rule for f in lint_source("src/repro/sim/x.py", hit, ["D001"])] == [
        "D001"
    ]
    miss = "import random\nx = random.random()  # repro: ignore[D001]\n"
    assert lint_source("src/repro/sim/x.py", miss, ["D001"]) == []


# --------------------------------------------------------------------------- #
# D001: unseeded / nondeterministic sources
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "snippet",
    [
        "import random\nx = random.random()\n",
        "import random\nrandom.shuffle(items)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import time\nt = time.time()\n",
        "import os\nx = os.urandom(8)\n",
        "import uuid\nx = uuid.uuid4()\n",
        "import datetime\nx = datetime.datetime.now()\n",
    ],
    ids=["random", "shuffle", "np-default-rng", "time", "urandom", "uuid4", "now"],
)
def test_d001_flags_each_nondeterministic_source(snippet):
    findings = lint_source("src/repro/sim/x.py", snippet, ["D001"])
    assert [f.rule for f in findings] == ["D001"]


def test_d001_flags_environment_reads_only_in_simulation_code():
    text = "import os\nx = os.environ['REPRO_MODE']\ny = os.getenv('HOME')\n"
    sim = lint_source("src/repro/sim/x.py", text, ["D001"])
    assert sorted(f.rule for f in sim) == ["D001", "D001"]
    # The CLI layer may read the environment.
    assert lint_source("src/repro/cli.py", text, ["D001"]) == []


def test_d001_exempts_the_seed_home_module():
    text = "import numpy as np\nrng = np.random.default_rng(seed)\n"
    assert lint_source("src/repro/sim/random.py", text, ["D001"]) == []
    assert lint_source("src/repro/sim/other.py", text, ["D001"]) != []


# --------------------------------------------------------------------------- #
# D002: order-unstable iteration
# --------------------------------------------------------------------------- #
_D002_ACCUMULATE = """
def drain(pending: set, totals):
    for key in {pending}:
        totals[key] = totals.get(key, 0.0) + 1.0
"""


def test_d002_flags_set_iteration_feeding_float_accumulation():
    text = _D002_ACCUMULATE.format(pending="pending")
    findings = lint_source("src/repro/sim/x.py", text, ["D002"])
    assert [f.rule for f in findings] == ["D002"]
    assert "sorted()" in findings[0].message


def test_d002_accepts_sorted_iteration():
    text = _D002_ACCUMULATE.format(pending="sorted(pending)")
    assert lint_source("src/repro/sim/x.py", text, ["D002"]) == []


def test_d002_ignores_order_insensitive_bodies():
    text = "def check(pending: set):\n    for key in pending:\n        print(key)\n"
    assert lint_source("src/repro/sim/x.py", text, ["D002"]) == []


def test_d002_only_applies_to_simulation_paths():
    text = _D002_ACCUMULATE.format(pending="pending")
    assert lint_source("src/repro/analysis/x.py", text, ["D002"]) == []


def test_d002_sees_through_set_typed_self_attributes():
    text = (
        "from typing import Set\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._dirty: Set[int] = set()\n"
        "    def settle(self, totals):\n"
        "        for key in self._dirty:\n"
        "            totals[key] += 1.0\n"
    )
    findings = lint_source("src/repro/sim/x.py", text, ["D002"])
    assert [f.rule for f in findings] == ["D002"]


def test_d002_tracks_set_operations_and_copies():
    text = (
        "def settle(a: set, b: set, total):\n"
        "    hot = (a & b).copy()\n"
        "    for key in hot:\n"
        "        total += key\n"
        "    return total\n"
    )
    findings = lint_source("src/repro/sim/x.py", text, ["D002"])
    assert [f.rule for f in findings] == ["D002"]


def test_d002_flags_event_scheduling_sinks():
    text = (
        "from heapq import heappush\n"
        "def enqueue(ready: set, heap):\n"
        "    for item in ready:\n"
        "        heappush(heap, item)\n"
    )
    findings = lint_source("src/repro/sim/x.py", text, ["D002"])
    assert [f.rule for f in findings] == ["D002"]
    assert "heappush" in findings[0].message


def test_d002_list_over_a_set_preserves_the_instability():
    text = (
        "def settle(pending: set, total):\n"
        "    for key in list(pending):\n"
        "        total += key\n"
        "    return total\n"
    )
    assert [
        f.rule for f in lint_source("src/repro/sim/x.py", text, ["D002"])
    ] == ["D002"]


# --------------------------------------------------------------------------- #
# D003: parity pairs
# --------------------------------------------------------------------------- #
_PAIR_SOURCE = """
def fast(x):
    \"\"\"Tuned implementation.\"\"\"
    return x * 2.0 + 1.0


def slow(x):
    \"\"\"Reference oracle.\"\"\"
    total = x * 2.0
    return total + 1.0
"""


def _pair_for(text: str) -> ParityPair:
    return ParityPair(
        name="demo",
        primary="src/repro/sim/demo.py::fast",
        oracle="src/repro/sim/demo.py::slow",
        primary_fingerprint=fingerprint_source(text, "fast"),
        oracle_fingerprint=fingerprint_source(text, "slow"),
    )


def _run_for(text: str) -> LintRun:
    return LintRun(files=[SourceFile("src/repro/sim/demo.py", text)])


def test_d003_blessed_pair_is_clean():
    assert check_pairs([_pair_for(_PAIR_SOURCE)], _run_for(_PAIR_SOURCE)) == []


def test_d003_docstring_and_comment_edits_never_fire():
    edited = _PAIR_SOURCE.replace(
        "Tuned implementation.", "Tuned implementation (rewritten prose)."
    ).replace("return x * 2.0 + 1.0", "return x * 2.0 + 1.0  # same math")
    assert check_pairs([_pair_for(_PAIR_SOURCE)], _run_for(edited)) == []


def test_d003_one_sided_edit_fails_and_names_the_partner():
    edited = _PAIR_SOURCE.replace("return x * 2.0 + 1.0", "return x * 2.0 + 1.5")
    findings = check_pairs([_pair_for(_PAIR_SOURCE)], _run_for(edited))
    assert [f.rule for f in findings] == ["D003"]
    message = findings[0].message
    assert "'fast' changed" in message
    assert "oracle side is untouched" in message
    assert "parity_pairs.py" in message


def test_d003_both_sides_changed_asks_for_a_re_bless():
    edited = _PAIR_SOURCE.replace("2.0", "3.0")
    findings = check_pairs([_pair_for(_PAIR_SOURCE)], _run_for(edited))
    assert len(findings) == 2
    assert all("both sides changed" in f.message for f in findings)


def test_d003_missing_function_is_reported():
    edited = _PAIR_SOURCE.replace("def slow", "def renamed")
    findings = check_pairs([_pair_for(_PAIR_SOURCE)], _run_for(edited))
    assert any("not found" in f.message for f in findings)


def test_d003_real_declarations_match_the_live_tree():
    """Every blessed fingerprint in parity_pairs.py matches the checkout."""
    rels = sorted(
        {split_reference(ref)[0] for pair in PARITY_PAIRS for ref in
         (pair.primary, pair.oracle)}
    )
    files = [SourceFile(rel, (REPO_ROOT / rel).read_text()) for rel in rels]
    run = LintRun(files=files, repo_root=REPO_ROOT)
    assert check_pairs(PARITY_PAIRS, run) == []


def test_d003_editing_one_side_of_a_real_pair_fails_lint():
    """The acceptance demonstration: touch the incremental fluid allocator
    without its reference oracle and D003 fires on the real declarations."""
    pair = next(p for p in PARITY_PAIRS if p.name == "fluid-progressive-filling")
    rel, qualname = split_reference(pair.primary)
    source = SourceFile(rel, (REPO_ROOT / rel).read_text())
    node = source.tree
    for part in qualname.split("."):
        node = next(
            child for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef))
            and child.name == part
        )
    node.body.append(ast.parse("_drift_marker = 1").body[0])
    run = LintRun(files=[source], repo_root=REPO_ROOT)
    findings = check_pairs([pair], run)
    assert [f.rule for f in findings] == ["D003"]
    assert "oracle side is untouched" in findings[0].message


# --------------------------------------------------------------------------- #
# U101: unit suffix discipline
# --------------------------------------------------------------------------- #
def test_u101_flags_cross_dimension_addition():
    text = "def f(size_bits, gap_seconds):\n    return size_bits + gap_seconds\n"
    findings = lint_source("src/repro/sim/x.py", text, ["U101"])
    assert [f.rule for f in findings] == ["U101"]
    assert "mixes unit dimensions" in findings[0].message


def test_u101_bits_and_bytes_are_distinct_dimensions():
    text = "def f(a_bits, b_bytes):\n    return a_bits - b_bytes\n"
    assert lint_source("src/repro/sim/x.py", text, ["U101"]) != []


def test_u101_same_dimension_arithmetic_is_clean():
    text = "def f(a_bits, b_bits, c_seconds):\n    return a_bits + b_bits\n"
    assert lint_source("src/repro/sim/x.py", text, ["U101"]) == []


def test_u101_flags_bare_scale_factors():
    text = "def f(rate_bps):\n    return rate_bps / 1e9\n"
    findings = lint_source("src/repro/experiments/x.py", text, ["U101"])
    assert [f.rule for f in findings] == ["U101"]
    assert "bare scale factor" in findings[0].message


def test_u101_exempts_the_units_module_itself():
    text = "def f(rate_bps):\n    return rate_bps / 1e9\n"
    assert lint_source("src/repro/sim/units.py", text, ["U101"]) == []


def test_u101_augmented_assignment_is_checked():
    text = "def f(total_bits, delta_seconds):\n    total_bits += delta_seconds\n"
    assert lint_source("src/repro/sim/x.py", text, ["U101"]) != []


# --------------------------------------------------------------------------- #
# R201: registry / docs completeness (the pure checkers)
# --------------------------------------------------------------------------- #
def test_r201_missing_scenario_row_is_reported():
    findings = check_scenario_docs(
        ["documented", "ghost"], "| `documented` | ... |", "docs/scenarios.md"
    )
    assert ["ghost" in f.message for f in findings] == [True]


def test_r201_family_without_moves_needs_an_exemption():
    findings = check_family_moves(
        {"grid": ["add-lane"], "mesh3d": []}, {}, "registry.py"
    )
    assert len(findings) == 1 and "mesh3d" in findings[0].message
    assert check_family_moves(
        {"mesh3d": []}, {"mesh3d": "reviewed"}, "registry.py"
    ) == []


def test_r201_stale_exemptions_are_themselves_findings():
    unknown = check_family_moves({}, {"gone": "stale"}, "registry.py")
    assert "unknown topology family" in unknown[0].message
    outgrown = check_family_moves(
        {"torus": ["wrap"]}, {"torus": "reviewed"}, "registry.py"
    )
    assert "now registers moves" in outgrown[0].message


def test_r201_tolerance_tables_compared_in_both_directions():
    tables = {"TOLERANCES": {"a", "stale"}, "TOPOLOGY_TOLERANCES": set(),
              "LOOP_TOLERANCES": set(), "TOPOLOGY_LOOP_TOLERANCES": set()}
    findings = check_tolerance_tables(
        {"a", "b"}, set(), set(), tables, "tests/test_backend_fidelity.py"
    )
    messages = "\n".join(f.message for f in findings)
    assert "'b' declares no fluid-vs-packet tolerance" in messages
    assert "stale" in messages


def test_r201_declared_table_keys_reads_module_level_dict_literals():
    text = "TOLERANCES = {'a': 1, 'b': 2}\nOTHER = [1]\nX = {'c': 3}\n"
    tables = declared_table_keys(text)
    assert tables["TOLERANCES"] == {"a", "b"}
    assert tables["X"] == {"c"}
    assert "OTHER" not in tables


# --------------------------------------------------------------------------- #
# R202: third-party imports must be declared dependencies
# --------------------------------------------------------------------------- #
def _lint_package(tmp_path: Path, dependencies: str, body: str):
    (tmp_path / "pyproject.toml").write_text(
        f"[project]\nname = 'x'\ndependencies = {dependencies}\n"
        "[project.optional-dependencies]\ntest = ['graphlib-extra']\n"
    )
    package = tmp_path / "src" / "repro" / "fabric"
    package.mkdir(parents=True)
    (package / "routing.py").write_text(body)
    files = collect_files([tmp_path / "src"], tmp_path)
    return run_rules(files, resolve_rules(["R202"])).findings


R202_BODY = (
    "from __future__ import annotations\n"
    "import heapq, os.path\n"
    "import numpy as np\n"
    "from repro.fabric.topology import Topology\n"
    "from . import sibling\n"
    "def lazy():\n"
    "    import networkx.algorithms\n"
)


def test_r202_flags_an_undeclared_third_party_import(tmp_path):
    findings = _lint_package(tmp_path, "['numpy']", R202_BODY)
    assert [(f.rule, f.line) for f in findings] == [("R202", 7)]
    assert "'networkx'" in findings[0].message


def test_r202_passes_when_every_import_is_declared(tmp_path):
    findings = _lint_package(tmp_path, "['NumPy>=1.20', 'networkx[default]==3.6.1']", R202_BODY)
    assert findings == []


def test_r202_reads_only_project_dependencies():
    text = (
        "[build-system]\nrequires = ['setuptools']\n"
        "[project]\nname = 'x'\n"
        "dependencies = [\n  'Foo.Bar>=1',  # a ] in a comment\n"
        "  \"baz[extra]; python_version < '3.10'\",\n]\n"
        "[[project.authors]]\nname = 'y'\n"
        "[tool.other]\ndependencies = ['not-this']\n"
    )
    assert declared_dependencies(text) == {"foo_bar", "baz"}
    assert declared_dependencies("[project]\nname = 'x'\n") == frozenset()


def test_r202_checked_in_stdlib_list_covers_the_live_tree(monkeypatch):
    """Python 3.9 has no sys.stdlib_module_names; the checked-in list must
    still pass every stdlib import the package makes."""
    monkeypatch.delattr(sys, "stdlib_module_names", raising=False)
    files = collect_files([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    assert run_rules(files, resolve_rules(["R202"])).findings == []


# --------------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------------- #
def test_baseline_round_trip_and_application(tmp_path):
    text = "import random\nx = random.random()\ny = random.random()\n"
    findings = lint_source("src/repro/sim/x.py", text, ["D001"])
    assert len(findings) == 2

    baseline_path = tmp_path / "lint-baseline.txt"
    write_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    new, stale = apply_baseline(findings, baseline)
    assert new == [] and stale == []


def test_baseline_counts_excuse_exactly_that_many_findings():
    text = "import random\nx = random.random()\nx = random.random()\n"
    findings = lint_source("src/repro/sim/x.py", text, ["D001"])
    assert len(findings) == 2
    assert finding_key(findings[0]) == finding_key(findings[1])
    baseline = Counter({finding_key(findings[0]): 1})
    new, stale = apply_baseline(findings, baseline)
    assert len(new) == 1 and stale == []


def test_baseline_survives_line_number_drift_but_not_edits():
    before = "import random\nx = random.random()\n"
    after = "import random\n# a new comment shifts the line\nx = random.random()\n"
    edited = "import random\nx = random.random()  # changed line\n"
    key = finding_key(lint_source("src/repro/sim/x.py", before, ["D001"])[0])
    baseline = Counter({key: 1})
    new, stale = apply_baseline(
        lint_source("src/repro/sim/x.py", after, ["D001"]), baseline
    )
    assert new == [] and stale == []
    new, stale = apply_baseline(
        lint_source("src/repro/sim/x.py", edited, ["D001"]), baseline
    )
    assert len(new) == 1 and stale == [key]


def test_baseline_rejects_malformed_lines(tmp_path):
    path = tmp_path / "lint-baseline.txt"
    path.write_text("D001 too few\n")
    with pytest.raises(ValueError, match="expected 'RULE PATH HASH COUNT'"):
        load_baseline(path)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _write_project(tmp_path: Path, body: str) -> Path:
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    target = pkg / "engine.py"
    target.write_text(body)
    return target


def test_cli_exit_codes_and_baseline_workflow(tmp_path):
    from repro.lint.cli import main

    target = _write_project(tmp_path, "import random\nx = random.random()\n")
    argv = [str(target), "--rules", "D001",
            "--baseline", str(tmp_path / "lint-baseline.txt")]
    assert main(argv) == 1
    assert main(argv + ["--write-baseline"]) == 0
    assert main(argv) == 0
    # Fixing the violation leaves a stale entry: plain run passes,
    # --strict fails until the baseline shrinks.
    target.write_text("x = 4\n")
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 1


def test_cli_list_rules_and_unknown_rule(capsys):
    from repro.lint.cli import main

    assert main(["--list-rules"]) == 0
    assert "D003" in capsys.readouterr().out
    assert main(["--rules", "Z999", "src"]) == 2


def test_main_cli_forwards_the_lint_subcommand(capsys):
    from repro.cli import main as fabric_main

    assert fabric_main(["lint", "--list-rules"]) == 0
    assert "parity-pair-drift" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# The live tree
# --------------------------------------------------------------------------- #
def test_live_tree_is_lint_clean_modulo_baseline():
    """src/repro passes every rule; the checked-in baseline may only excuse
    grandfathered findings that still exist (no stale entries)."""
    files = collect_files([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    run = run_rules(files, resolve_rules(), repo_root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / "lint-baseline.txt")
    new, stale = apply_baseline(run.findings, baseline)
    assert new == [], "\n" + "\n".join(f.render() for f in new)
    assert stale == [], f"stale baseline entries: {stale}"


def test_find_repo_root_walks_up_to_pyproject():
    assert find_repo_root(Path(__file__)) == REPO_ROOT


def test_scenario_rows_are_bitwise_stable_across_hash_seeds():
    """PYTHONHASHSEED must not leak into result rows: the D002 fixes in the
    fluid allocator iterate string-keyed sets in sorted order, so two
    processes with different hash seeds produce byte-identical JSON."""
    def row(seed: str) -> dict:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "permutation",
             "--set", "mean_flow_mb=0.05"],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        data = json.loads(out)
        data.pop("timing", None)
        return data

    assert row("1") == row("271828")
