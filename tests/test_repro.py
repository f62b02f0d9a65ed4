"""Golden outputs: the repro/ scripts regenerate every committed
classification report, m_max table and exclusion-instance listing byte
for byte."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "repro")


def run_script(name, *args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, *flags, os.path.join(REPRO, name)] + list(args),
        check=True, env=env, capture_output=True, text=True,
        timeout=600).stdout


def test_repro_artifacts_regenerate_byte_identical(tmp_path):
    run_script("classify_small_degrees.py", "--out-dir", str(tmp_path),
               "--workers", "2")
    run_script("mmax_tables.py", "--out-dir", str(tmp_path))
    committed = sorted(n for n in os.listdir(REPRO)
                       if n.endswith((".json", ".csv")))
    assert sorted(os.listdir(tmp_path)) == committed
    for name in committed:
        with open(os.path.join(REPRO, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name


def test_exclusion_instances_regenerate_byte_identical():
    with open(os.path.join(REPRO, "exclusion_instances.txt"), "rb") as fh:
        want = fh.read()
    assert run_script("exclusion_instances.py").encode() == want


def test_derivative_suite_same_under_optimize():
    # python -O strips assert statements; the script's checks must not be
    # among them, so both runs report the same counts
    plain = run_script("derivative_suite.py", "--per-field", "20")
    optimized = run_script("derivative_suite.py", "--per-field", "20",
                           flags=("-O",))
    assert optimized == plain
    assert "(1:1:1:0) singular:     32" in plain


def _derivative_suite():
    spec = importlib.util.spec_from_file_location(
        "derivative_suite", os.path.join(REPRO, "derivative_suite.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name, broken, message", [
    ("derivative_divisibility", None, "not divisible"),
    ("diagonal_infinity_singular", False, "(1:1:1:0) not singular"),
])
def test_derivative_suite_failure_names_the_map(monkeypatch, capsys, name,
                                                broken, message):
    mod = _derivative_suite()
    monkeypatch.setattr(mod, name, lambda s: broken)
    assert mod.main(["--per-field", "2"]) == 1
    err = capsys.readouterr().err
    assert message in err and "PolyFunc(0x7*x^6" in err and "GF(2^3)" in err
