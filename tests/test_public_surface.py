"""The public surface that code outside the package relies on.

Every name that ``perfbench/`` and ``demos/`` import from sigcluster must
resolve, every keyword perfbench passes must be a parameter, and every
entry of ``sigcluster.__all__`` must resolve; the demos must run to
completion. The criteria must stay subclassable the way
``perfbench/execute.py`` wraps them (a copy of that wrapping here, and
perfbench's own), and the calibration tables callable in the forms its
layer rows use. No module imports a name it never uses, no module but
``data_io`` names the bundled datasets, and importing the package leaves
``scipy.stats`` unloaded. The count of settable values (parameters,
dataclass fields, command-line options) may not grow unnoticed.
"""

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import sigcluster
from sigcluster import (
    ADCriterion,
    Dataset,
    DipViewerCriterion,
    SigtestConfig,
    SigtestCriterion,
    bundled_manifest,
    dip_reference_dips,
    dip_reference_table,
    dipmeans_family,
    gmeans_family,
    lilliefors_reference,
    lilliefors_table,
    load_csv,
    run_method,
)
from sigcluster import clustering
from sigcluster.cli import build_parser
from sigcluster.clustering import CLUSTERERS, TEST_CRITERIA

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def sigcluster_imports():
    """(script, module, name) of every ``from sigcluster... import name``."""
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                    and node.module.split(".")[0] == "sigcluster"):
                for alias in node.names:
                    yield path.relative_to(ROOT), node.module, alias.name


def test_scripts_import_sigcluster():
    # guards the scan itself: an empty scan would pass the test below
    scripts = {script.parts[0] for script, _, _ in sigcluster_imports()}
    assert scripts == {"perfbench", "demos"}


def test_imported_names_resolve():
    missing = [f"{script}: from {module} import {name}"
               for script, module, name in sigcluster_imports()
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, "names removed from sigcluster:\n" + "\n".join(missing)


def test_modules_use_every_import():
    # __init__.py is exempt: it imports to re-export
    unused = []
    for path in sorted((ROOT / "src" / "sigcluster").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno}: {name}"
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_perfbench_keywords_are_parameters():
    # perfbench calls run_test_benchmark(runs=, seed=, methods=, timing_runs=)
    # and more by keyword; a renamed parameter would end its run, not a test
    wrong = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {alias.asname or alias.name: importlib.import_module(node.module)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                    and node.module.split(".")[0] == "sigcluster"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            params = inspect.signature(getattr(imported[node.func.id], node.func.id)).parameters
            wrong += [f"{path.name}:{node.lineno}: {node.func.id}({kw.arg}=)"
                      for kw in node.keywords if kw.arg is not None and kw.arg not in params]
    assert not wrong, "keywords sigcluster no longer takes:\n" + "\n".join(wrong)


def moments_and_blocks(path):
    """Each ``.mean(``/``.std(`` call (method or numpy function) and each
    use of ``_BLOCK_VALUES`` in a module, as "file:line: what"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("mean", "std")):
            found.append(f"{path.name}:{node.lineno}: .{node.func.attr}()")
        names = ([node.id] if isinstance(node, ast.Name) else
                 [node.attr] if isinstance(node, ast.Attribute) else
                 [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
        if "_BLOCK_VALUES" in names:
            found.append(f"{path.name}:{node.lineno}: _BLOCK_VALUES")
    return found


def test_moments_and_block_rule_stay_in_core():
    # every mean and sum of squared deviations of sigtest, AD and KS comes
    # from core._row_moments and every block size from core._block_rows;
    # a .mean/.std call or the block constant in these modules would form
    # a second one that can drift from it
    src = ROOT / "src" / "sigcluster"
    assert moments_and_blocks(src / "core.py")  # guards the scan itself
    found = [line for name in ("sigtest.py", "baselines.py")
             for line in moments_and_blocks(src / name)]
    assert not found, "moments or block sizes formed outside core:\n" + "\n".join(found)


def bundled_names(path):
    """Each string constant in a module that names the bundled datasets,
    as "file:line: value"."""
    names = {"iris", "seeds", "iris,seeds"}
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Constant) and node.value in names]


def test_bundled_dataset_names_stay_in_data_io():
    # data_io._BUNDLED is the one list of the datasets that ship with the
    # package; a name written out elsewhere (a CLI default, a membership
    # test) would miss a dataset added there
    src = ROOT / "src" / "sigcluster"
    assert bundled_names(src / "data_io.py")  # guards the scan itself
    found = [line for path in sorted(src.glob("*.py")) if path.name != "data_io.py"
             for line in bundled_names(path)]
    assert not found, "bundled dataset names outside data_io:\n" + "\n".join(found)


def named_calls(path):
    """(line, enclosing function, name) of each call of a name or an
    attribute in a module; the function is None at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.append((child.lineno, scope, name))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_size_rule_and_row_kernels_stay_in_their_modules():
    # each test's sample-size rule is core._check_size; the other two size
    # refusals are the dip's bootstrap size and the split loop's
    # 2 * MIN_SAMPLES points. The signature and dip row kernels are
    # called only in their own modules: the criteria reach them through
    # the rows forms of sigtest and dip_test
    src = ROOT / "src" / "sigcluster"
    allowed = {("core.py", "_check_size"), ("baselines.py", "_bootstrap_size"),
               ("clustering.py", "_split_loop")}
    kernels = {"_signature_rows": "sigtest.py", "_dip_rows": "baselines.py"}
    raised, callers, stray = set(), set(), []
    for path in sorted(src.glob("*.py")):
        for line, scope, name in named_calls(path):
            if name == "TooFewSamplesError":
                raised.add((path.name, scope))
            if name == "_check_size":
                callers.add(path.name)
            if name in kernels:
                if kernels[name] != path.name:
                    stray.append(f"{path.name}:{line}: {name}")
                callers.add(name)
    # guards the scan itself: it finds the helper, its callers and the kernels
    assert ("core.py", "_check_size") in raised
    assert {"sigtest.py", "baselines.py", *kernels} <= callers
    assert raised <= allowed, f"TooFewSamplesError raised outside the size rules: {raised - allowed}"
    assert not stray, "row kernels called outside their modules:\n" + "\n".join(stray)


@pytest.fixture
def perfbench_modules(monkeypatch):
    """perfbench's workloads, execute and checks modules, imported from
    its directory as its scripts import them, and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    names = ("workloads", "execute", "checks")
    yield [importlib.import_module(name) for name in names]
    for name in names:
        sys.modules.pop(name, None)


def test_perfbench_names_and_timed_criteria(perfbench_modules):
    workloads, execute, checks = perfbench_modules
    assert set(workloads.CLUSTER_KINDS) == set(CLUSTERERS)
    assert set(checks.SWEEP_METHODS.values()) <= set(TEST_CRITERIA)
    iris = load_csv(bundled_manifest("iris"))
    for kind in workloads.CLUSTER_KINDS:
        tracer = execute.Tracer()
        tracer.begin_op(kind, 0)
        traced = execute._traced_family(kind, iris, 3, tracer)
        tracer.end_op()
        ref = run_method(kind, iris, seed=3)
        assert execute.cluster_parts(traced) == execute.cluster_parts(ref)
        if CLUSTERERS[kind][0] is gmeans_family:  # one span per projection test
            assert [span.name for span in tracer.spans[1:]] == \
                [f"criterion.{rec.criterion}" for rec in ref.split_log]


def test_all_entries_resolve():
    missing = [name for name in sigcluster.__all__ if not hasattr(sigcluster, name)]
    assert not missing


# the settable values this surface has; raise it only with a new option
# that is meant to be there
SETTABLE_VALUES = 162


def settable_values() -> int:
    """The values a user can set: the parameters of each public function
    and the fields of each public dataclass in ``sigcluster.__all__``
    (other classes and constants count nothing), plus every command-line
    option of every subcommand (not the positional inputs, not --help)
    and one for the subcommand itself."""
    count = 0
    for name in sigcluster.__all__:
        obj = getattr(sigcluster, name)
        if isinstance(obj, type):
            count += len(fields(obj)) if is_dataclass(obj) else 0
        elif callable(obj):
            count += len(inspect.signature(obj).parameters)

    def options(parser):
        total = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                total += 1 + sum(options(sub) for sub in action.choices.values())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                total += 1
        return total

    return count + options(build_parser())


def test_settable_values_capped():
    count = settable_values()
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, above {SETTABLE_VALUES}: a new parameter, field or "
        "option must raise SETTABLE_VALUES in the same change")


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs most of a second to import and the package uses
    # none of it: Anderson-Darling is computed in closed form
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sigcluster; print('scipy.stats' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("demo, args", [
    ("01_signature_test.py", []),
    ("02_test_benchmark.py", ["--fast"]),
    ("03_cluster_estimation.py", []),
])
def test_demo_runs(demo, args, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


class _Recording:
    """Wraps each criterion call like perfbench's timing subclasses: a
    one-sample ``test`` and a batched ``test_rows`` alike."""

    def test(self, y):
        stat, reject = super().test(y)
        self.calls.append(("test", self.name, bool(reject)))
        return stat, reject

    def test_rows(self, Y):
        stats, rejects = super().test_rows(Y)
        self.calls.append(("test_rows", self.name, int(np.count_nonzero(rejects))))
        return stats, rejects


@dataclass(frozen=True)
class RecordingAD(_Recording, ADCriterion):
    calls: list = field(default_factory=list, compare=False)


@dataclass(frozen=True)
class RecordingSigtest(_Recording, SigtestCriterion):
    calls: list = field(default_factory=list, compare=False)


@dataclass(frozen=True)
class RecordingDipViewer(_Recording, DipViewerCriterion):
    calls: list = field(default_factory=list, compare=False)


@pytest.mark.parametrize("method, family, make", [
    ("gmeans", gmeans_family, lambda: RecordingAD(calls=[])),
    ("gmeans+", gmeans_family, lambda: RecordingSigtest(SigtestConfig(), calls=[])),
    ("dipmeans", dipmeans_family, lambda: RecordingDipViewer(calls=[])),
    ("dipmeans+", dipmeans_family, lambda: RecordingSigtest(SigtestConfig(), calls=[])),
])
def test_criterion_subclass_reproduces_run_method(method, family, make, monkeypatch):
    # iris, and three blobs whose first split-off blob stays whole for a
    # round more, so dipmeans_family reuses its kept verdict
    rng = np.random.default_rng(99)
    blobs = Dataset(rows=np.vstack([rng.normal(size=(100, 2)) + c
                                    for c in ((0, 0), (30, 0), (0, 30))]))
    sets = (load_csv(bundled_manifest("iris")), blobs)
    refs = [run_method(method, data, seed=3) for data in sets]
    # the criterion calls of each round of the split loop, and those of
    # each viewer evaluation, one list per dipmeans record
    per_round, per_evaluation = [], []
    split_loop, viewer_fraction = clustering._split_loop, clustering._viewer_fraction

    def recording_loop(data, criterion, seed, evaluate):
        def recorded(clusters):
            before = len(criterion.calls)
            out = evaluate(clusters)
            per_round.append(criterion.calls[before:])
            return out
        return split_loop(data, criterion, seed, recorded)

    def recording_fraction(criterion, *args):
        before = len(criterion.calls)
        out = viewer_fraction(criterion, *args)
        per_evaluation.append(criterion.calls[before:])
        return out

    monkeypatch.setattr(clustering, "_split_loop", recording_loop)
    monkeypatch.setattr(clustering, "_viewer_fraction", recording_fraction)
    reused = 0
    for data, ref in zip(sets, refs):
        criterion = make()
        per_round.clear()
        per_evaluation.clear()
        res = family(data, criterion, 3)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.split_log == ref.split_log
        assert {name for _, name, _ in criterion.calls} == {ref.split_log[0].criterion}
        rounds = [[rec for rec in ref.split_log if rec.round == r] for r in range(len(per_round))]
        assert sum(map(len, rounds)) == len(ref.split_log)
        if family is not dipmeans_family:
            # a round projects and tests each of its clusters in turn
            for calls, records in zip(per_round, rounds):
                assert calls == [("test", rec.criterion, rec.decision) for rec in records]
            continue
        # an evaluation's viewers go through one batched call (every
        # member is a viewer at these sizes), whose rejects make the logged
        # viewer fraction; an evaluation with no call reused the verdict
        # of a cluster kept whole with the same rows. A round makes no
        # call outside its evaluations.
        assert len(per_evaluation) == len(ref.split_log)
        assert [call for calls in per_round for call in calls] == \
            [call for calls in per_evaluation for call in calls]
        for calls, rec in zip(per_evaluation, ref.split_log):
            if calls:
                [(kind, _, rejects)] = calls
                assert kind == "test_rows" and rejects / rec.n == rec.statistic
            else:
                assert not rec.decision and rec.n <= 500
                reused += 1
    assert reused > 0 or family is not dipmeans_family


def test_table_call_forms():
    N = 20
    for table in (lilliefors_table, dip_reference_table):
        table.cache_clear()
    np.testing.assert_array_equal(lilliefors_table(N), lilliefors_reference(N))
    np.testing.assert_array_equal(dip_reference_table(N, 1000), dip_reference_dips(N, 1000))
    lilliefors_table(N)
    dip_reference_table(N, 1000)
    for table in (lilliefors_table, dip_reference_table):
        info = table.cache_info()
        assert (info.hits, info.misses) == (1, 1)
