"""Golden outputs: the repro/ scripts regenerate every committed
classification report and m_max table byte for byte."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "repro")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, os.path.join(REPRO, name)] + list(args),
                   check=True, env=env, capture_output=True, timeout=600)


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
