import itertools
import json
import math

import pytest

from loopstar.cli import main
from loopstar.report import CheckRecord, load_report
import loopstar.suites as suites


def write_config(tmp_path, **overrides):
    doc = {"d": 2, "K": 2, "N": 6, "R": 2, "suites": ["algebra"],
           "mc": {"n_samples": 500, "K_mc": 16, "n_grid": 4096}}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_exit_zero_on_pass(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_exit_one_on_failure(tmp_path, monkeypatch):
    def failing_runner(cfg):
        return [CheckRecord(suite="algebra", check_id="forced.failure",
                            claim="forced", residual=1.0, tolerance=0.0,
                            n_instances=1, seed=0)]

    monkeypatch.setitem(suites.SUITE_RUNNERS, "algebra", failing_runner)
    path = write_config(tmp_path)
    assert main(["--config", str(path)]) == 1


def test_non_finite_residual_fails_and_is_written_as_null(tmp_path, monkeypatch):
    """An evaluator that returns inf on every third call FAILs its check, not vanishes."""
    original, calls = suites.chaos_eval_spectral, itertools.count(1)

    def every_third_inf(F, xi):
        value = original(F, xi)
        return math.inf if next(calls) % 3 == 0 else value

    monkeypatch.setattr(suites, "chaos_eval_spectral", every_third_inf)
    path = write_config(tmp_path, suites=["chaos"])
    out = tmp_path / "report.json"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    written = next(r for r in json.loads(out.read_text())["records"]
                   if r["check_id"] == "factorization.spectral")
    assert written["residual"] is None and written["observed"] is None
    assert not written["passed"]
    loaded = next(r for r in load_report(out).records if r.check_id == "factorization.spectral")
    assert loaded.residual == math.inf and not loaded.passed
    assert not load_report(out).all_passed


def test_exit_two_on_config_errors(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert main(["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "-1"]) == 2
    assert main(["--config", str(path), "--seed", str(2 ** 64)]) == 2


def test_unknown_suite_flag_exits_two(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--suite", "nope"])
    assert exc.value.code == 2


def test_suite_restriction_window_guard(tmp_path):
    path = write_config(tmp_path, N=6, R=4)
    assert main(["--config", str(path), "--suite", "equivalence"]) == 2


def test_suite_restriction_chaos_cutoff_guard(tmp_path, capsys):
    """K > mc.K_mc, and a grid of at most K_mc + K points, are rejected before
    the chaos suite runs, not by a traceback or a failed check inside it."""
    path = write_config(tmp_path, K=3, mc={"n_samples": 500, "K_mc": 2, "n_grid": 1024})
    assert main(["--config", str(path), "--suite", "chaos"]) == 2
    err = capsys.readouterr().err
    assert "mc.K_mc" in err and "Traceback" not in err
    path = write_config(tmp_path, K=3, mc={"n_samples": 500, "K_mc": 16, "n_grid": 19})
    assert main(["--config", str(path), "--suite", "chaos"]) == 2
    err = capsys.readouterr().err
    assert "mc.n_grid" in err and "Traceback" not in err


def test_out_flag_writes_byte_identical_reports(tmp_path, capsys):
    path = write_config(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--config", str(path), "--out", str(out1)]) == 0
    assert main(["--config", str(path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".txt").exists()
    report = load_report(out1)
    assert report.all_passed
    assert {r.suite for r in report.records} == {"algebra"}


def test_seed_override_changes_report(tmp_path, capsys):
    path = write_config(tmp_path)
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(["--config", str(path), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["--config", str(path), "--out", str(out2), "--seed", "8"]) == 0
    capsys.readouterr()
    r1 = load_report(out1)
    r2 = load_report(out2)
    assert r1.records[0].seed == 7 and r2.records[0].seed == 8
    assert out1.read_bytes() != out2.read_bytes()


def test_txt_report_path_exits_two_before_any_suite(tmp_path, capsys, monkeypatch):
    """The summary goes to the report path with suffix .txt: for a .txt path, the path itself."""
    def runner(cfg):
        raise AssertionError("a suite ran")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "algebra", runner)
    dest = tmp_path / "report.txt"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(dest)]) == 2
    assert str(dest) in capsys.readouterr().err
    assert not dest.exists()


def test_config_output_path_is_an_unknown_field(tmp_path, capsys):
    """The report path is set by `--out` alone; a config naming one is refused."""
    dest = tmp_path / "from_config.json"
    path = write_config(tmp_path, output_path=str(dest))
    assert main(["--config", str(path)]) == 2
    assert f"{path}.output_path: unknown field" in capsys.readouterr().err
    assert not dest.exists()
