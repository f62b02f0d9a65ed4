"""Command line behaviour: outputs, formats, exit codes."""

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from apnsurf import cli, search
from apnsurf.cli import build_parser, main
from apnsurf.errors import NotDivisible
from apnsurf.gf2m import Field
from apnsurf.mvpoly import TriPoly

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_apn_test_true(capsys):
    code, out, _ = run(capsys, "apn-test", "--m", "5", "--poly", "x^7")
    assert code == 0
    assert "delta = 2" in out


def test_apn_test_double_star_power(capsys):
    # Gold x^3 written with "**" is uniformity two over GF(16)
    code, out, _ = run(capsys, "apn-test", "--m", "4", "--poly", "x**3")
    assert code == 0
    assert "delta = 2" in out


def test_apn_test_false(capsys):
    code, out, _ = run(capsys, "apn-test", "--m", "3", "--poly", "x^6+x^5")
    assert code == 1
    assert "not uniformity two" in out


def test_apn_test_affine_maps_reach_delta_q(capsys):
    # every derivative of an affine map is constant: each row puts all q
    # solutions on one b, through the one-row and the every-row paths
    for poly in ("0", "x^2+3*x+5"):
        code, out, _ = run(capsys, "--format", "json", "apn-test", "--m",
                           "4", "--poly", poly)
        assert code == 1
        rec = json.loads(out)
        assert rec["delta"] == 16
        assert rec["counts"] == {"0": 225, "16": 15}


def test_apn_test_parse_error(capsys):
    code, _, err = run(capsys, "apn-test", "--m", "3", "--poly", "x^^")
    assert code == 2
    assert "error:" in err


def test_apn_test_json_and_bind(capsys):
    code, out, _ = run(capsys, "--format", "json", "apn-test", "--m", "3",
                       "--poly", "x^5+A*x^3", "--bind", "A=0")
    assert code == 0
    rec = json.loads(out)
    assert rec["apn"] is True and rec["delta"] == 2
    assert sum(rec["counts"].values()) == 7 * 8


def test_bad_binding(capsys):
    code, _, err = run(capsys, "apn-test", "--m", "3", "--poly", "x^5",
                       "--bind", "A")
    assert code == 2 and "bindings" in err
    code, _, err = run(capsys, "apn-test", "--m", "3", "--poly", "x^5",
                       "--bind", "A=zz")
    assert code == 2


def test_parser_reuse_keeps_calls_apart(capsys):
    # one parser serves every call in a process; neither --bind appends
    # nor --format may carry over from one call to the next
    assert build_parser() is build_parser()
    argv = ["apn-test", "--m", "3", "--poly", "x^5+A*x^3"]
    code, out, _ = run(capsys, "--format", "json", *argv, "--bind", "A=0")
    assert code == 0 and json.loads(out)["apn"] is True
    code, _, err = run(capsys, *argv)
    assert code == 2 and "unbound" in err
    code, out, _ = run(capsys, *argv, "--bind", "A=1")
    assert code == 1 and out.startswith("delta = 4")


def test_field_built_once_per_modulus(capsys, monkeypatch):
    built = []

    def counting_field(m, poly=None):
        built.append((m, poly))
        return Field(m, poly)
    monkeypatch.setattr(cli, "Field", counting_field)
    cli._field.cache_clear()
    try:
        for argv in (["apn-test", "--m", "5", "--poly", "x^7"],
                     ["sigma", "count", "--m", "5", "--poly", "x^7"],
                     ["apn-test", "--m", "5", "--poly", "x^7",
                      "--modulus", "2f"],
                     ["sigma", "count", "--m", "5", "--poly", "x^7",
                      "--modulus", "2f"]):
            assert run(capsys, *argv)[0] == 0
        assert built == [(5, None), (5, 0x2F)]
        assert cli._field(5, None) is cli._field(5, None)
        assert cli._field(5, "2f") is not cli._field(5, None)
        # failures are not cached: each call rebuilds and fails again
        for bad in ("zz", "21"):  # not hex; x^5 + 1 is reducible
            for _ in range(2):
                code, _, err = run(capsys, "apn-test", "--m", "5", "--poly",
                                   "x^7", "--modulus", bad)
                assert code == 2 and "error:" in err
        assert built == [(5, None), (5, 0x2F), (5, 0x21), (5, 0x21)]
    finally:
        cli._field.cache_clear()


def test_sigma_build_cube(capsys):
    code, out, _ = run(capsys, "sigma", "build", "--m", "3",
                       "--poly", "x^3")
    assert code == 0
    assert out.strip() == "0x1"


def test_sigma_build_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "sigma", "build",
                       "--m", "3", "--poly", "x^5")
    rec = json.loads(out)
    assert code == 0 and rec["degree"] == 2
    assert "x0" in rec["surface"]


def test_sigma_count_off_locus(capsys):
    code, out, _ = run(capsys, "--format", "json", "sigma", "count",
                       "--m", "3", "--poly", "x^6+x^5")
    rec = json.loads(out)
    assert code == 0
    assert rec["affine_off_locus"] >= 6
    assert rec["projective"] == rec["affine"] + rec["infinity"]


def test_sigma_count_field_limit(capsys):
    # m <= 16 is counted (m = 11 used to exit 3), m = 17 is an input error
    code, out, _ = run(capsys, "--format", "json", "sigma", "count",
                       "--m", "11", "--poly", "x^5")
    assert code == 0 and json.loads(out)["affine_off_locus"] == 0
    code, _, err = run(capsys, "sigma", "count", "--m", "17", "--poly", "x^5")
    assert code == 2 and "m <= 16" in err


def test_sigma_check_derivative(capsys):
    code, out, _ = run(capsys, "sigma", "check-derivative", "--m", "5",
                       "--poly", "x^7")
    assert code == 0
    assert "holds" in out


def test_sigma_check_derivative_payloads_frozen(capsys):
    # the payloads the heap division gave: three quotient texts in full
    # for degree 13, the SHA-256 of the payload for degree 29
    code, out, _ = run(capsys, "--format", "json", "sigma",
                       "check-derivative", "--m", "5",
                       "--poly", "x^13 + 3*x^7 + 5*x^5 + x^3")
    assert code == 0
    assert out == json.dumps({"holds": True, "quotients": [
        "x0^8 + x0^4*x1^4 + x0^4*x1^3*x2 + x0^4*x1^2*x2^2 + x0^4*x1*x2^3"
        " + x0^4*x2^4 + x0^2*x1^5*x2 + x0^2*x1^4*x2^2 + x0^2*x1^2*x2^4"
        " + x0^2*x1*x2^5 + x1^8 + x1^5*x2^3 + x1^4*x2^4 + x1^3*x2^5"
        " + x2^8 + 0x3*x1*x2 + 0x5",
        "x0^8 + x0^5*x1^2*x2 + x0^5*x2^3 + x0^4*x1^4 + x0^4*x1^2*x2^2"
        " + x0^4*x2^4 + x0^3*x1^4*x2 + x0^3*x2^5 + x0^2*x1^4*x2^2"
        " + x0^2*x1^2*x2^4 + x0*x1^4*x2^3 + x0*x1^2*x2^5 + x1^8"
        " + x1^4*x2^4 + x2^8 + 0x3*x0*x2 + 0x5",
        "x0^8 + x0^5*x1^3 + x0^5*x1*x2^2 + x0^4*x1^4 + x0^4*x1^2*x2^2"
        " + x0^4*x2^4 + x0^3*x1^5 + x0^3*x1*x2^4 + x0^2*x1^4*x2^2"
        " + x0^2*x1^2*x2^4 + x0*x1^5*x2^2 + x0*x1^3*x2^4 + x1^8"
        " + x1^4*x2^4 + x2^8 + 0x3*x0*x1 + 0x5"]}, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "--format", "json", "sigma",
                       "check-derivative", "--m", "5",
                       "--poly", "x^29 + x^7 + 7*x^5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "55346096f40f1b930ded38382f158afa507f30d760587ca44c99cad4d70e64b7")


def test_sigma_check_derivative_failure_exits_one(capsys, monkeypatch):
    # the identity always holds, so a failing division is forced
    def fail(self, i, j):
        raise NotDivisible("forced", remainder=self)
    monkeypatch.setattr(TriPoly, "divide_linear", fail)
    code, out, _ = run(capsys, "--format", "json", "sigma",
                       "check-derivative", "--m", "5", "--poly", "x^7")
    assert code == 1
    assert out == '{"holds": false}\n'
    code, out, _ = run(capsys, "sigma", "check-derivative", "--m", "5",
                       "--poly", "x^7")
    assert code == 1
    assert out == "derivative divisibility fails\n"


def test_sigma_check_singular(capsys):
    code, out, _ = run(capsys, "sigma", "check-singular", "--m", "3",
                       "--poly", "x^5")
    assert code == 0
    assert "singular" in out


def test_sigma_check_singular_nonconstant_diagonal(capsys):
    code, out, _ = run(capsys, "--format", "json", "sigma",
                       "check-singular", "--m", "4", "--poly", "x^7")
    assert code == 1
    rec = json.loads(out)
    assert rec["singular"] is None
    assert [0, 0, 0] in rec["diagonal_roots"]


def test_sigma_rejects_additive_input(capsys):
    code, _, err = run(capsys, "sigma", "build", "--m", "3", "--poly", "x^2")
    assert code == 2 and "error:" in err


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "bounds", "mmax")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d_max,m_max,form"
    assert "36,25,none" in lines
    assert len(lines) == 16


def test_bounds_json_isolated(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "mmax",
                       "--kind", "isolated")
    rec = json.loads(out)
    assert code == 0
    assert rec["claim_id"] == "published-mmax-isolated"
    assert rec["discrepancies"] == []
    assert len(rec["rows"]) == 15


def test_bounds_text_flags_discrepancy(capsys):
    code, out, _ = run(capsys, "bounds", "mmax")
    assert code == 0
    assert "DISCREPANCY" in out


def test_criteria_exit_codes(capsys):
    code, out, _ = run(capsys, "criteria", "--d", "7")
    assert code == 0
    assert out.count("established") == 2
    code, _, _ = run(capsys, "criteria", "--d", "13")
    assert code == 1
    code, out, _ = run(capsys, "--format", "json", "criteria", "--d", "13",
                       "--r", "7")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["verdicts"]) == 2
    assert rec["verdicts"][0]["status"] == "established"


def test_criteria_degree_below_three_is_input_error(capsys):
    # no degree-d curve at infinity exists below 3, as infinity_curve says
    for d in ("-3", "0", "2"):
        code, out, err = run(capsys, "criteria", "--d", d)
        assert code == 2, d
        assert out == "" and "below 3" in err, d
    code, out, _ = run(capsys, "criteria", "--d", "3")
    assert code == 1
    assert out.count("unknown") == 2


def test_seed_flag_is_usage_error(capsys):
    # no result ever depended on a seed, so the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "criteria", "--d", "13", "--r", "7"])
    assert exc.value.code == 2
    assert "--seed" not in build_parser().format_help()


def test_search_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "4",
                       "--family", "x^6 + A*x^5 + B*x^3")
    assert code == 0
    lines = out.strip().split("\n")
    hit = json.loads(lines[0])
    assert hit["coeffs"] == ["0x0", "0x0"]
    summary = json.loads(lines[-1])
    assert summary["complete"] is True and summary["hits"] == 1
    assert summary["scanned"] == 256


def test_search_over_gf2_has_no_hits(capsys):
    # every map over GF(2) is affine, so none is reported
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "1",
                       "--family", "x^3")
    assert code == 0
    assert json.loads(out) == {"candidates": 1, "complete": True,
                               "cursor": 1, "hits": 0, "scanned": 1}


def test_search_bind_shrinks_family(capsys):
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "4",
                       "--family", "x^6 + A*x^5 + B*x^3", "--bind", "A=0")
    summary = json.loads(out.strip().split("\n")[-1])
    assert code == 0 and summary["candidates"] == 16


def test_search_budget_and_resume(capsys, tmp_path):
    ck = str(tmp_path / "ck")
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "4",
                       "--family", "x^6 + A*x^5 + B*x^3",
                       "--budget", str(100 * 256), "--checkpoint", ck)
    assert code == 3
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["complete"] is False and summary["cursor"] == 100
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "4",
                       "--family", "x^6 + A*x^5 + B*x^3",
                       "--checkpoint", ck, "--resume")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["cursor"] == 256 and summary["scanned"] == 156


def test_search_checkpoint_payloads_frozen(capsys, tmp_path):
    # the full degree-9 family at m = 4, stopped inside the representative
    # block a7 = 1, then inside a mapped block, then finished, then
    # resumed once more with nothing left: the SHA-256 of each JSON
    # payload, frozen from the scaling-only plan, which scanned other
    # candidates for the same output
    ck = str(tmp_path / "ck")
    family = ["search", "--m", "4", "--family",
              "x^9 + A*x^7 + B*x^6 + C*x^5 + D*x^3", "--checkpoint", ck]
    digests = (
        "665d68298bcbfb90cd0ebb044f718266b42c16320a7eb72d6b12d24fc05b57ec",
        "afb46be5cbfe85087cdf86e4133a922b99b7afc9b757bcd53c3bdfd72e2ad2bb",
        "67525cf462f8ac76dd3a874300aa1bd6b3717970a10bed2363bb2c95d4b1ba2e",
        "90bcc36344f4f1b7f884fb0f00025b9339038114eb59475ad988a1ca91adde97")
    for (extra, want), digest in zip((
            (["--budget", str(5000 * 256)], 3),
            (["--budget", str(40000 * 256), "--resume"], 3),
            (["--resume"], 0), (["--resume"], 0)), digests):
        code, out, _ = run(capsys, "--format", "json", *family, *extra)
        assert code == want
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_workers_flag_is_accepted_and_ignored(capsys):
    # the same bytes with any --workers value, 0 included, and with none
    for argv in (["search", "--m", "4", "--family",
                  "x^9 + A*x^7 + B*x^6 + C*x^5 + D*x^3"],
                 ["classify", "--degree", "6", "--m", "4"]):
        outs = []
        for flag in ([], ["--workers", "0"], ["--workers", "3"]):
            code, out, err = run(capsys, "--format", "json", *flag, *argv)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[1] == outs[0] == outs[2]


def test_resume_without_checkpoint_is_usage_error(capsys):
    # without a checkpoint file there is no cursor to resume from; the
    # scan must not start over from index 0 as if it had resumed
    code, out, err = run(capsys, "search", "--m", "4",
                         "--family", "x^6 + A*x^5 + B*x^3", "--resume")
    assert code == 2
    assert out == ""
    assert "--resume needs --checkpoint" in err


def test_search_checkpoint_write_failure_is_input_error(capsys, tmp_path):
    # a checkpoint in a missing directory cannot be written: an error
    # line and exit 2, not a traceback and exit 1, which means false
    ck = tmp_path / "missing" / "ck"
    code, out, err = run(capsys, "search", "--m", "4",
                         "--family", "x^6 + A*x^5 + B*x^3",
                         "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write checkpoint: ")
    assert "Traceback" not in err and not ck.parent.exists()


def test_search_checkpoint_written_before_the_scan(capsys, tmp_path,
                                                   monkeypatch):
    # the start cursor is written before any scan work, so an unwritable
    # checkpoint fails without scanning, and a writable one holds the
    # start cursor while the scan runs
    def no_scan(job, start=0, stop=None):
        raise AssertionError("scan ran before the checkpoint was written")
    monkeypatch.setattr(cli, "scan", no_scan)
    ck = tmp_path / "missing" / "ck"
    code, out, err = run(capsys, "search", "--m", "4",
                         "--family", "x^6 + A*x^5 + B*x^3",
                         "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write checkpoint: ")
    seen = []
    ck = tmp_path / "ck"
    monkeypatch.setattr(cli, "scan", lambda job, start=0, stop=None:
                        seen.append(ck.read_text().split()[1])
                        or no_scan(job))
    with pytest.raises(AssertionError):
        main(["search", "--m", "4", "--family", "x^6 + A*x^5 + B*x^3",
              "--checkpoint", str(ck)])
    assert seen == ["0"]


def test_classify_degree9_equals_search(capsys):
    # the degree-9 classification at m = 6 is the search of the whole
    # family, hit for hit
    code, out, _ = run(capsys, "--format", "json", "classify",
                       "--degree", "9", "--m", "6")
    assert code == 0
    [full] = json.loads(out)["scans"]
    code, out, _ = run(capsys, "--format", "json", "search", "--m", "6",
                       "--budget", str(1 << 60), "--family",
                       "x^9 + A*x^7 + B*x^6 + C*x^5 + D*x^3")
    assert code == 0
    *lines, summary = (json.loads(x) for x in out.strip().split("\n"))
    assert summary["scanned"] == full["scanned"] == 1 << 24
    got = [([int(c, 16) for c in h["coeffs"]], h["delta"], h["digest"])
           for h in lines]
    want = [([h["coeffs"]["a%d" % e] for e in full["free_degrees"]],
             h["delta"], h["digest"]) for h in full["hits"]]
    assert got == want and len(got) == 42
    assert all(coeffs[3] == 0 for coeffs, _, _ in got)


def test_version_matches_pyproject(capsys):
    text = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out == "apnsurf %s\n" % version


def test_readme_global_flags_are_the_parser_options():
    text = (ROOT / "README.md").read_text()
    sentence = re.search(r"Global flags: (.*?)\.\s", text, re.S).group(1)
    documented = {flag.split()[0]
                  for flag in re.findall(r"`([^`]+)`", sentence)}
    options = {opt for action in build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}


def test_classify_cli(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify",
                       "--degree", "6", "--m", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["claim_id"] == "degree6-classification"
    assert rec["scans"][0]["hits"][0]["coeffs"] == {"a3": 0, "a5": 0}


def test_classify_degrees_are_the_table_rows(capsys, monkeypatch):
    # the --degree choices are search._CLASSIFICATIONS' degrees, so a
    # degree needs only a table row: x^5 + a3*x^3 at m = 3, whose hits
    # all match x^5 (a Gold map there)
    def degree_choices():
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return next(a for a in sub.choices["classify"]._actions
                    if a.dest == "degree").choices
    assert degree_choices() == sorted(search._CLASSIFICATIONS) == [6, 7, 9]
    with pytest.raises(SystemExit) as e:
        main(["classify", "--degree", "5", "--m", "3"])
    assert e.value.code == 2
    try:
        monkeypatch.setitem(search._CLASSIFICATIONS, 5, (3, 4, (5,), []))
        build_parser.cache_clear()
        assert degree_choices() == [5, 6, 7, 9]
        code, out, _ = run(capsys, "--format", "json", "classify",
                           "--degree", "5", "--m", "3")
    finally:
        monkeypatch.undo()
        build_parser.cache_clear()
    assert code == 0
    rec = json.loads(out)
    assert rec["claim_id"] == "degree5-classification"
    assert rec["scans"][0]["hits"]
    assert rec["notes"][-1] == "every hit's fingerprint matches that of x^5"
    assert degree_choices() == [6, 7, 9]


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["apn-test", "--poly", "x^3"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "apnsurf.cli", "--format", "csv",
         "bounds", "mmax", "--kind", "isolated"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("d_max,m_max,form")
