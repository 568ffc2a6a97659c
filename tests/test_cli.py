import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toda2
from toda2 import cli
from toda2.registry import REGISTRY, CheckDef, RunConfig, run_checks
from toda2.ring import Scalar

# ``toda2 list``, pinned: no report row carries the module column it prints
LIST_REFERENCE = Path(__file__).resolve().parent / "reference" / "list.txt"
CATALOGUE_REPORT = Path(__file__).resolve().parent / "reference" / "catalogue_report.json"


def test_list_prints_every_check(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for cid in REGISTRY:
        assert cid in out
    assert f"{len(REGISTRY)} checks registered" in out
    # order is stable and sorted
    lines = [l.split()[0] for l in out.splitlines()[:-1] if l.strip()]
    assert lines == sorted(lines)
    assert "taut" in out


def test_list_matches_the_pinned_catalogue(capsys):
    # ids, module column, anchors and listed defaults, line for line
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out == LIST_REFERENCE.read_text()


def test_list_is_reproducible(capsys):
    cli.main(["list"])
    first = capsys.readouterr().out
    cli.main(["list"])
    second = capsys.readouterr().out
    assert first == second


def test_unknown_check_id_is_usage_error(capsys):
    assert cli.main(["verify", "not_a_check"]) == 2
    # the message as raised, not the quoted str() of the KeyError
    assert capsys.readouterr().err == "error: unknown check ids: not_a_check\n"


def test_bad_config_is_usage_error():
    assert cli.main(["verify", "taut", "--sites", "0"]) == 2


def test_single_check_runs_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "taut", "--sites", "1", "--json", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["id"] == "taut"
    assert rows[0]["status"] == "pass"
    assert set(rows[0]) == {"id", "params", "status", "residual_terms",
                            "witness", "anchor", "elapsed_ms"}


def test_json_reports_sorted_and_deterministic(tmp_path):
    ids = ["w1w1", "taut", "qosc_algebra", "AD"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", *ids, "--json", str(p1)]) == 0
    assert cli.main(["verify", *ids, "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = json.loads(p1.read_text())
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
    assert all(r["elapsed_ms"] is None for r in rows)


def test_timings_flag_adds_elapsed(tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["verify", "Lqosc_match", "--json", str(out), "--timings"]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["elapsed_ms"] is not None


def test_failing_check_gives_exit_one(monkeypatch, tmp_path, capsys):
    # a check that runs to the end with a nonzero residual, not one that raises
    monkeypatch.setitem(REGISTRY, "Lqosc_match", CheckDef(
        "Lqosc_match", "stoch", "forced failure", lambda cfg: {},
        lambda params: [("forced", Scalar.const(1))]))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "Lqosc_match", "--json", str(out)]) == 1
    (row,) = json.loads(out.read_text())
    assert row["status"] == "fail"
    assert row["residual_terms"] == 1
    assert row["witness"] == "forced: 1"
    assert capsys.readouterr().err == ""


def test_raising_check_becomes_failed_row(monkeypatch, tmp_path):
    import toda2.registry as reg

    def raising(params):
        raise ValueError("forced inside the check")
    monkeypatch.setitem(
        reg.REGISTRY, "Omega_H1",
        reg.CheckDef("Omega_H1", "stoch", "forced exception", lambda cfg: {}, raising))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "AD", "Omega_H1", "--json", str(out)]) == 1
    rows = {r["id"]: r for r in json.loads(out.read_text())}
    assert rows["AD"]["status"] == "pass"
    assert rows["Omega_H1"]["status"] == "fail"
    assert rows["Omega_H1"]["witness"] == "ValueError: forced inside the check"


def test_too_small_truncation_is_rejected_before_any_check(monkeypatch, tmp_path, capsys):
    import toda2.registry as reg

    ran = []
    for cid in ("AD", "Omega_H1"):
        d = reg.REGISTRY[cid]
        monkeypatch.setitem(reg.REGISTRY, cid, reg.CheckDef(
            cid, d.module, d.anchor, d.params, lambda params, c=cid: ran.append(c)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "AD", "Omega_H1", "--trunc", "2", "--json", str(out)]) == 2
    assert "trunc must be at least 3" in capsys.readouterr().err
    assert not out.exists()
    assert ran == []


@pytest.mark.parametrize("kwargs", [{"sites": 0}, {"trunc": 2}, {"max_terms": 0}])
def test_run_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_verify_defaults_are_the_run_config_defaults():
    args = cli._build_parser().parse_args(["verify", "all"])
    default = RunConfig()
    assert RunConfig.__slots__ == ("sites", "trunc", "max_terms")
    for name in RunConfig.__slots__:
        assert getattr(args, name) == getattr(default, name), name


def test_all_among_other_ids_runs_the_whole_catalogue(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["verify", "all", "AD", "--json", str(out)]) == 0
    assert out.read_bytes() == CATALOGUE_REPORT.read_bytes()


def test_import_leaves_out_dataclasses_and_json():
    # dataclasses alone brings inspect, ast, dis and tokenize, about half of
    # the start-up of every run; json is imported only to write a report.
    # The baseline is what this interpreter loads before the import (its
    # site hook may load typing or re), so only the import's own modules count.
    src = str(Path(toda2.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import toda2.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "toda2.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}


def test_unwritable_report_path_is_io_error(tmp_path):
    bad = tmp_path / "missing" / "report.json"
    assert cli.main(["verify", "Lqosc_match", "--json", str(bad)]) == 2


def test_run_checks_rejects_unknown():
    with pytest.raises(KeyError):
        run_checks(["nope"], RunConfig())


def test_degenerate_does_not_fail_run():
    reports = run_checks(["poissonL_degenerate"], RunConfig())
    assert reports[0].status == "degenerate"
    assert cli.main(["verify", "poissonL_degenerate"]) == 0


def test_term_cap_row_fails_and_restores_the_cap(tmp_path):
    from toda2 import weyl

    out = tmp_path / "r.json"
    assert cli.main(["verify", "ATT_TTD", "AD", "--max-terms", "10", "--json", str(out)]) == 1
    rows = {r["id"]: r for r in json.loads(out.read_text())}
    assert rows["ATT_TTD"]["status"] == "fail"
    assert rows["ATT_TTD"]["witness"] == "term cap exceeded: product exceeds 10 terms"
    assert rows["ATT_TTD"]["params"] == {"max_terms": 10, "seed": 0}
    assert rows["ATT_TTD"]["anchor"] == REGISTRY["ATT_TTD"].anchor \
        == "monodromy quadratic exchange algebra"
    assert rows["AD"]["status"] == "pass"
    assert weyl.TERM_CAP == 10 ** 6


def test_term_cap_fails_the_fused_commutator_and_leaves_the_next_check_its_cap(tmp_path):
    from toda2 import weyl

    # commute holds more than 10 keys in one commutator; distant_commute, which
    # runs next, also takes commutators and stays within 10 keys
    out = tmp_path / "r.json"
    assert cli.main(["verify", "commute", "distant_commute", "--max-terms", "10",
                     "--json", str(out)]) == 1
    rows = {r["id"]: r for r in json.loads(out.read_text())}
    assert rows["commute"]["status"] == "fail"
    assert rows["commute"]["witness"] == "term cap exceeded: product exceeds 10 terms"
    assert rows["commute"]["params"] == {"max_terms": 10, "seed": 0}
    assert rows["distant_commute"]["status"] == "pass"
    assert weyl.TERM_CAP == 10 ** 6
