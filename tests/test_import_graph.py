"""Import contract: the diagnosis side loads no simulator code.

``repro serve`` and the one-shot diagnosis commands answer from session
records alone, so importing them must not load the packages that
simulate sessions.  Each case runs in a fresh interpreter: in this one,
other tests have long since imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: packages that simulate or label sessions; the diagnosis side needs none
SIMULATOR_PACKAGES = (
    "repro.simnet",
    "repro.testbed",
    "repro.video",
    "repro.probes",
    "repro.traffic",
    "repro.faults",
    "repro.experiments",
)

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_python(code: str, stdin: bytes = b"") -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, input=stdin,
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def simulator_modules(loaded):
    return sorted(
        name for name in loaded
        if any(name == pkg or name.startswith(pkg + ".")
               for pkg in SIMULATOR_PACKAGES)
    )


@pytest.mark.parametrize(
    "module", ["repro", "repro.api", "repro.serve", "repro.wire", "repro.cli"])
def test_diagnosis_side_loads_no_simulator(module):
    loaded = json.loads(run_python(
        f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"))
    assert simulator_modules(loaded) == []


def test_lint_command_loads_no_simulator():
    code = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['lint', {os.path.join(SRC, 'repro', 'wire.py')!r}])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert simulator_modules(json.loads(run_python(code))) == []


@pytest.mark.parametrize(
    "package", ["repro", "repro.pipeline", "repro.core", "repro.ml", "repro.obs"])
def test_lazy_exports_resolve_and_are_listed(package):
    code = (
        "import importlib, json\n"
        f"pkg = importlib.import_module({package!r})\n"
        "names = list(pkg.__all__)\n"
        "missing = [n for n in names if getattr(pkg, n, None) is None]\n"
        "unlisted = sorted(set(names) - set(dir(pkg)))\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "print(json.dumps([names, missing, unlisted,\n"
        "                  sorted(set(names) - set(star))]))\n"
    )
    names, missing, unlisted, not_starred = json.loads(run_python(code))
    assert names
    assert missing == []
    assert unlisted == []
    assert not_starred == []


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.ml", "repro.obs"])
def test_lazy_exports_are_the_type_checking_imports(package):
    """``__all__`` is what type checkers see: imported for them, or bound."""
    tree = ast.parse(Path(SRC, *package.split("."), "__init__.py").read_text())
    typed = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for stmt in node.body if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    names, bound = json.loads(run_python(
        f"import json, {package} as pkg\n"
        "print(json.dumps([pkg.__all__, sorted(vars(pkg))]))\n"))
    assert typed and typed <= set(names)
    assert set(names) <= typed | set(bound)


def test_an_export_named_like_its_submodule_is_not_shadowed():
    """``repro.ml.fcbf`` stays the function once the submodule is loaded."""
    code = (
        "import repro.ml.fcbf, repro.serve\n"
        "from repro import ml\n"
        "from repro.ml import fcbf\n"
        "print(callable(ml.fcbf), callable(fcbf), fcbf.__module__)\n"
    )
    assert run_python(code) == "True True repro.ml.fcbf\n"


def test_make_fault_with_only_fault_base_imported():
    code = (
        "from repro.faults.base import FAULT_NAMES, make_fault\n"
        "for name in FAULT_NAMES:\n"
        "    fault = make_fault(name, 'mild')\n"
        "    assert fault.name == name and fault.severity == 'mild', name\n"
        "print(len(FAULT_NAMES))\n"
    )
    assert int(run_python(code)) == 7


def test_session_record_pickles_old_and_new():
    """Records round-trip; pickles naming the testbed module still load."""
    from repro import SessionRecord

    record = SessionRecord(
        features={"mobile_tcp_rtt_avg": 0.5}, app_metrics={"stall_s": 1.0},
        mos=2.5, severity="mild", fault_name="lan_shaping",
        fault_severity="mild", fault_location="lan",
        fault_intensity={"rate_bps": 1e6}, meta={"session_s": 12.0},
    )
    new = pickle.dumps(record, protocol=2)
    # protocol 2 names the class in a text GLOBAL opcode: rewriting that
    # line gives the pickle written while the class lived in the testbed
    where = f"c{SessionRecord.__module__}\nSessionRecord\n".encode()
    old = new.replace(where, b"crepro.testbed.testbed\nSessionRecord\n")
    assert where in new and b"crepro.testbed.testbed\n" in old
    code = (
        "import pickle, sys\n"
        "from repro import SessionRecord\n"
        "new, old = pickle.loads(sys.stdin.buffer.read())\n"
        "a, b = pickle.loads(new), pickle.loads(old)\n"
        "assert type(a) is SessionRecord and type(b) is SessionRecord\n"
        "assert a == b and a.exact_label == 'lan_shaping_mild'\n"
        "print(repr(b))\n"
    )
    assert run_python(code, pickle.dumps([new, old])) == repr(record) + "\n"


def test_diagnose_with_a_saved_model_loads_no_simulator(tmp_path, mini_dataset):
    from repro.core.diagnosis import RootCauseAnalyzer

    model, dataset = tmp_path / "model.json", tmp_path / "sessions.pkl"
    RootCauseAnalyzer(vps=("mobile",)).fit(mini_dataset).save(model)
    dataset.write_bytes(pickle.dumps(mini_dataset))
    code = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['diagnose', '--model', {str(model)!r},\n"
        f"                 '--dataset', {str(dataset)!r}, '--json'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    code, loaded = json.loads(run_python(code))
    assert code == 0
    assert simulator_modules(loaded) == []


def test_streaming_diagnosis_loads_no_simulator(
    tmp_path, mini_dataset, mini_campaign_records
):
    from repro.core.diagnosis import RootCauseAnalyzer
    from repro.record import record_to_dict

    model = tmp_path / "model.json"
    analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(mini_dataset)
    analyzer.save(model)
    sessions = mini_campaign_records[:5]
    expected = [r.to_dict() for r in analyzer.diagnose_batch(sessions)]
    records = [record_to_dict(r) for r in sessions]
    code = (
        "import json, sys\n"
        "from repro import RootCauseAnalyzer, api\n"
        f"analyzer = RootCauseAnalyzer.load({str(model)!r})\n"
        "records = json.load(sys.stdin)\n"
        "reports = [r.to_dict() for r in\n"
        "           api.diagnose_stream(analyzer, records, chunk=2)]\n"
        "print(json.dumps([reports, sorted(sys.modules)]))\n"
    )
    reports, loaded = json.loads(
        run_python(code, json.dumps(records).encode()))
    assert reports == expected
    assert simulator_modules(loaded) == []
