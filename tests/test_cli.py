import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

from fracpois import cli, dist, sample, verify
from fracpois.dist import ProcessParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmf_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--lambda", "1.0", "--t", "1.0",
                           "--alpha", "0.5", "--kmax", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
    # repr floats reparse exactly
    assert float(rows[0]["p"]) == dist.pmf(ProcessParams(1.0, 0.5), 1.0, 0).p
    assert out.endswith("\n") and "\r" not in out


def test_pmf_json_shape(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--lambda", "2.0", "--t", "0.5",
                           "--kmax", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["lambda"] == 2.0
    assert len(payload["rows"]) == 3
    assert payload["rows"][1]["p"] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pmf_reports_clamps(capsys, monkeypatch):
    """A p below 0 prints as 0.0; the JSON meta counts it, the CSV bytes
    stay those of the clamped rows."""
    rows = [dist.PmfRow(0, 0.5, 1e-17), dist.PmfRow(1, -1e-30, 1e-17)]
    args = ("pmf", "--lambda", "1", "--t", "1", "--kmax", "1")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["clamped"] == 0
    monkeypatch.setattr(dist, "pmf_row", lambda *a, **kw: rows)
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["meta"]["clamped"] == 1
    assert [r["p"] for r in payload["rows"]] == [0.5, 0.0]
    code, out, _ = run_cli(capsys, *args)
    assert out == "k,p,error_bound\n0,0.5,1e-17\n1,0.0,1e-17\n"


def test_pgf_value(capsys):
    code, out, _ = run_cli(capsys, "pgf", "--lambda", "1.0", "--t", "1.0",
                           "--alpha", "0.5", "--u", "0.5", "--format", "json")
    assert code == 0
    val = json.loads(out)["rows"][0]["value"]
    assert val == pytest.approx(math.exp(-math.sqrt(0.5)), rel=1e-12)


def test_pgf_small_order_large_rate(capsys):
    """E_0.02(-1e15): a value with its bound, where a math domain error
    once ended the command with exit 1."""
    code, out, _ = run_cli(capsys, "pgf", "--nu", "0.02", "--lambda", "1e15",
                           "--t", "1", "--u", "0", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == pytest.approx(1e-15 / math.gamma(0.98), rel=1e-12)


def test_sample_deterministic(capsys):
    args = ("sample", "--process", "space", "--lambda", "1.0", "--alpha",
            "0.5", "--t", "1.0", "--n", "50", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    counts = [int(r["count"]) for r in csv.DictReader(io.StringIO(out1))]
    assert len(counts) == 50 and all(c >= 0 for c in counts)


def test_sample_seed_changes_output(capsys):
    base = ("sample", "--process", "time", "--lambda", "1.0", "--nu", "0.5",
            "--t", "1.0", "--n", "50")
    _, out1, _ = run_cli(capsys, *base, "--seed", "1")
    _, out2, _ = run_cli(capsys, *base, "--seed", "2")
    assert out1 != out2


def test_passage_table(capsys):
    code, out, _ = run_cli(capsys, "passage", "--lambda", "1.0", "--alpha",
                           "0.5", "--k", "1", "--tmax", "2.0", "--steps", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    cdfs = [float(r["cdf"]) for r in rows]
    assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))
    assert "density" in rows[0]


def test_passage_reports_bounds(capsys):
    """Both laws carry their bounds: at alpha = 1 the cdf is the Erlang
    distribution function 1 - e**-2 at k = 1, t = 2."""
    code, out, _ = run_cli(capsys, "passage", "--alpha", "1", "--lambda",
                           "1", "--k", "1", "--t", "2")
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert list(row) == ["t", "cdf", "cdf_error_bound", "density",
                         "density_error_bound"]
    assert abs(float(row["cdf"]) - (1 - math.exp(-2))) <= \
        float(row["cdf_error_bound"])
    assert abs(float(row["density"]) - math.exp(-2)) <= \
        float(row["density_error_bound"])


def test_passage_one_kernel_row_per_step(capsys, monkeypatch):
    calls = []
    pmf_row = dist.pmf_row

    def counted(*args, **kwargs):
        calls.append(args)
        return pmf_row(*args, **kwargs)

    monkeypatch.setattr(dist, "pmf_row", counted)
    code, out, _ = run_cli(capsys, "passage", "--lambda", "1.0", "--alpha",
                           "0.5", "--k", "3", "--tmax", "5.0", "--steps",
                           "25")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 25
    assert len(calls) == 25


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_passage_steps_must_be_positive(capsys, steps):
    code, _, err = run_cli(capsys, "passage", "--lambda", "1.0", "--alpha",
                           "0.5", "--k", "1", "--tmax", "1.0", "--steps",
                           steps)
    assert code == 1
    assert "--steps" in err


def test_passage_single_time(capsys):
    code, out, _ = run_cli(capsys, "passage", "--lambda", "1.0", "--k", "0",
                           "--t", "1.0", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["cdf"] == 1.0


@pytest.mark.parametrize("k, density", [("1", 1e-200), ("2", 0.0)])
def test_passage_underflowing_mean(capsys, k, density):
    """lam * t below the smallest double is a value, not a traceback."""
    code, out, _ = run_cli(capsys, "passage", "--lambda", "1e-200", "--t",
                           "1e-200", "--k", k)
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert float(row["cdf"]) == 0.0 and float(row["density"]) == density


def test_usage_error_exit_code_1(capsys):
    code, _, err = run_cli(capsys, "pmf", "--lambda", "1.0", "--t", "1.0")
    assert code == 1  # missing --kmax
    assert "error" in err
    code, _, _ = run_cli(capsys, "pmf", "--lambda", "-1.0", "--t", "1.0",
                         "--kmax", "2")
    assert code == 1  # invalid parameter value
    code, _, _ = run_cli(capsys, "sample", "--process", "space", "--lambda",
                         "1.0", "--nu", "0.5", "--t", "1.0", "--n", "5",
                         "--seed", "0")
    assert code == 1  # space process needs nu = 1
    code, _, err = run_cli(capsys, "pmf", "--lambda", "1.0", "--t", "1.0",
                           "--kmax", "-1")
    assert code == 1 and "kmax must be >= 0" in err
    code, _, err = run_cli(capsys, "passage", "--lambda", "1.0", "--t",
                           "1.0", "--k", "-1")
    assert code == 1 and "k must be >= 0" in err


def test_nonconvergence_exit_code_2(capsys):
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "pmf", "--lambda", "5.0", "--nu",
                                 "0.5", "--t", "1.0", "--kmax", "5",
                                 "--max-terms", "5", "--format", fmt)
        assert code == 2 and out == ""
        assert "non-convergence" in err


def test_sample_refuses_subnormal_orders(capsys, monkeypatch):
    """An order whose inverse overflows exits 1 before any draw (the
    sampler is patched to fail, so a draw fails the test, not hangs it)."""
    def draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(sample, "_mixed_poisson_counts", draw)
    code, out, err = run_cli(capsys, "sample", "--process", "space",
                             "--alpha", "1e-310", "--lambda", "1", "--t",
                             "1", "--n", "10", "--seed", "1")
    assert code == 1 and out == ""
    assert "1/alpha finite" in err


def test_min_uniform_honours_max_terms(capsys):
    """The suite's analytic value is bound by --tol/--max-terms like pgf."""
    code, out, err = run_cli(capsys, "verify", "--suite", "min-uniform",
                             "--nu", "0.5", "--lambda", "5", "--t", "1",
                             "--n", "1000", "--max-terms", "1")
    assert code == 2 and out == ""
    assert "non-convergence" in err


@pytest.mark.parametrize("argv", [
    ["--suite", "pmf-mc", "--process", "space", "--alpha", "0.7"],
    ["--suite", "subordination", "--alpha", "0.8", "--gamma", "0.5"],
], ids=["pmf-mc", "subordination"])
def test_verify_csv_floats_parse(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--lambda", "1", "--t",
                           "1", "--seed", "1", "--n", "20000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    for row in rows:
        for key, value in row.items():
            if key != "bin":
                float(value)


def test_statfail_exit_code_3(capsys):
    # deliberately mismatched orders in the subordination suite
    code, out, _ = run_cli(capsys, "verify", "--suite", "subordination",
                           "--lambda", "1.0", "--alpha", "0.8", "--gamma",
                           "0.5", "--t", "1.0", "--n", "20000", "--seed", "3",
                           "--format", "json")
    assert code == 0  # matched case passes first
    code, out, _ = run_cli(capsys, "verify", "--suite", "ode", "--lambda",
                           "1.0", "--alpha", "0.6", "--t", "1.0")
    assert code == 0


def test_verify_oracle_statfail_on_bad_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 1.0 1.0 1.0 0 0.25\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--lambda",
                           "1.0", "--t", "1.0", "--fixture", str(bad),
                           "--format", "json")
    assert code == 3
    assert json.loads(out)["meta"]["passed"] is False


def test_output_file(tmp_path, capsys):
    out = tmp_path / "pmf.csv"
    code, stdout, _ = run_cli(capsys, "pmf", "--lambda", "1.0", "--t", "1.0",
                              "--kmax", "1", "--out", str(out))
    assert code == 0 and stdout == ""
    text = out.read_text()
    assert text.splitlines()[0] == "k,p,error_bound"


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    """A file that cannot be written is exit 1 with a message, not a
    traceback, and nothing reaches stdout."""
    code, out, err = run_cli(capsys, "pmf", "--lambda", "1", "--t", "1",
                             "--kmax", "3", "--out",
                             str(tmp_path / "missing" / "x"))
    assert code == 1 and out == ""
    assert err.startswith("fracpois: error:") and "No such file" in err


def test_out_naming_a_folder_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "pmf", "--lambda", "1", "--t", "1",
                             "--kmax", "3", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("fracpois: error:") and "Is a directory" in err


def test_out_without_write_permission_is_usage_error(tmp_path, capsys,
                                                    monkeypatch):
    """A file that may not be written is exit 1, and none is made.  Where
    the tests run as root every path is writable, so ``os.access`` is
    made to refuse."""
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    target = tmp_path / "x"
    code, out, err = run_cli(capsys, "pmf", "--lambda", "1", "--t", "1",
                             "--kmax", "3", "--out", str(target))
    assert code == 1 and out == "" and not target.exists()
    assert err.startswith("fracpois: error:") and "Permission denied" in err


def test_unwritable_out_fails_before_the_work(tmp_path, capsys,
                                             monkeypatch):
    """The --out path is checked before the command's work runs, and a
    command that fails after the check leaves no file behind."""
    def work(*args):
        raise AssertionError("worked")

    monkeypatch.setattr(dist, "pmf_row", work)
    code, out, err = run_cli(capsys, "pmf", "--lambda", "1", "--t", "1",
                             "--kmax", "3", "--out", "/nonexistent/x")
    assert code == 1 and out == ""
    assert err.startswith("fracpois: error:") and "No such file" in err
    monkeypatch.undo()
    target = tmp_path / "x"
    code, _, _ = run_cli(capsys, "pmf", "--lambda", "5.0", "--nu", "0.5",
                         "--t", "1.0", "--kmax", "5", "--max-terms", "5",
                         "--out", str(target))
    assert code == 2 and not target.exists()


def test_unreadable_fixture_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle",
                             "--lambda", "1", "--t", "1", "--fixture",
                             str(tmp_path / "missing"))
    assert code == 1 and out == ""
    assert err.startswith("fracpois: error:") and "No such file" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """Three calls construct the parsers of one build_parser() call."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser()
    one = len(built)
    built.clear()
    cli._parser.cache_clear()
    for _ in range(3):
        code, _, _ = run_cli(capsys, "pgf", "--alpha", "0.7", "--lambda",
                             "5", "--t", "1", "--u", "0.6")
        assert code == 0
    assert len(built) == one


def test_failed_call_leaves_the_next_unchanged(capsys):
    argv = ("pmf", "--lambda", "5", "--t", "1", "--kmax", "30")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    # fails after --lambda, --t and --format have been parsed
    code, out, _ = run_cli(capsys, "pmf", "--lambda", "2", "--t", "3",
                           "--format", "json", "--kmax", "nan")
    assert code == 1 and out == ""
    assert run_cli(capsys, *argv) == first


def test_defaults_do_not_carry_over(capsys):
    argv = ("pmf", "--lambda", "1", "--t", "1", "--kmax", "2")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and set(json.loads(out)) == {"meta", "rows"}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("k,p,error_bound\n")
    law = ("--lambda", "1", "--alpha", "0.5", "--t", "1", "--n", "10",
           "--seed", "1")
    code, _, _ = run_cli(capsys, "sample", "--process", "composed",
                         "--gamma", "0.5", *law)
    assert code == 0
    # a carried --gamma would make this "gamma applies only to composed"
    code, _, err = run_cli(capsys, "sample", "--process", "space", *law)
    assert code == 0, err


def test_build_parser_returns_a_fresh_parser():
    a, b = cli.build_parser(), cli.build_parser()
    assert a is not b and cli._parser() not in (a, b)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("seed", ["0", "1"])
def test_verify_pmf_mc_composed_passes(capsys, seed):
    # composed counts follow the space law of order alpha * gamma
    code, out, _ = run_cli(capsys, "verify", "--suite", "pmf-mc",
                           "--process", "composed", "--alpha", "0.7",
                           "--gamma", "0.5", "--lambda", "1", "--t", "1",
                           "--seed", seed, "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["passed"] is True


def _first_draws(rng):
    return tuple(rng.generator().random(4))


def test_verify_retries_draw_their_own_streams(capsys, monkeypatch):
    """A retry must not repeat the next seed's first attempt."""
    streams = []

    def record(process, params, t, n, rng, **kwargs):
        streams.append(_first_draws(rng))
        return SimpleNamespace(counts=None)

    failing = verify.GofReport(0.0, 1, 0.0, [])
    monkeypatch.setattr(sample, "sample_batch", record)
    monkeypatch.setattr(verify, "gof_pmf", lambda batch, cfg: failing)
    monkeypatch.setattr(verify, "gof_two_sample", lambda a, b: failing)
    for seed in ("5", "6"):
        assert run_cli(capsys, "verify", "--suite", "pmf-mc", "--lambda",
                       "1", "--t", "1", "--seed", seed)[0] == 3
        assert run_cli(capsys, "verify", "--suite", "subordination",
                       "--alpha", "0.8", "--gamma", "0.5", "--lambda", "1",
                       "--t", "1", "--seed", seed)[0] == 3
    # per seed: two pmf-mc attempts, then two subordination attempts of
    # two draws each
    assert len(streams) == 12
    for seed in (streams[:6], streams[6:]):
        pmf_mc, subordination = seed[:2], seed[2:]
        assert len(set(pmf_mc)) == 2 and len(set(subordination)) == 4
    assert not set(streams[:6]) & set(streams[6:])


def test_min_uniform_draws_one_stream_per_u(capsys, monkeypatch):
    streams = []

    def record(params, t, u, n, rng, cfg):
        streams.append(_first_draws(rng))
        return verify.MinUniformResult(0.5, 0.5, 0.0)

    monkeypatch.setattr(verify, "check_min_uniform_space", record)
    code, _, _ = run_cli(capsys, "verify", "--suite", "min-uniform",
                         "--alpha", "0.7", "--lambda", "1", "--t", "1")
    assert code == 0
    assert len(streams) == 3 and len(set(streams)) == 3


def test_sample_meta_reports_redraws(capsys, monkeypatch):
    log_stable = sample._log_stable
    redraws = []

    def one_more(gamma, size, gen):
        log_s, rd = log_stable(gamma, size, gen)
        redraws.append(rd + 1)
        return log_s, rd + 1

    monkeypatch.setattr(sample, "_log_stable", one_more)
    code, out, _ = run_cli(capsys, "sample", "--process", "space-time",
                           "--lambda", "1", "--alpha", "0.5", "--nu", "0.7",
                           "--t", "1", "--n", "10", "--seed", "0",
                           "--format", "json")
    assert code == 0
    assert len(redraws) == 2
    assert json.loads(out)["meta"]["redraws"] == sum(redraws)


@pytest.mark.parametrize("argv", [
    ["sample", "--process", "composed", "--n", "3", "--seed", "1"],
    ["verify", "--suite", "subordination", "--n", "20000", "--seed", "1"],
])
def test_composed_process_refuses_nu_below_one(capsys, argv):
    """The composed process runs on a gamma-stable clock, at nu = 1 only."""
    code, out, err = run_cli(capsys, *argv, "--lambda", "1", "--alpha",
                             "0.7", "--nu", "0.5", "--gamma", "0.5", "--t",
                             "1")
    assert code == 1 and out == ""
    assert "requires nu = 1" in err


def test_sample_meta_reports_gamma(capsys):
    code, out, _ = run_cli(capsys, "sample", "--process", "composed",
                           "--lambda", "1", "--alpha", "0.7", "--gamma",
                           "0.5", "--t", "1", "--n", "3", "--seed", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["gamma"] == 0.5


def test_sample_meta_reports_capped(capsys):
    """At alpha = .05 about a tenth of the counts sit at the cap 2**62, and
    the JSON meta counts them."""
    code, out, _ = run_cli(capsys, "sample", "--process", "space",
                           "--lambda", "1", "--alpha", "0.05", "--t", "1",
                           "--n", "2000", "--seed", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    capped = sum(row["count"] == 2 ** 62 for row in doc["rows"])
    assert doc["meta"]["capped"] == capped > 0


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--seed", str(2 ** 64)),
    ("--stream-id", "-1"), ("--stream-id", str(2 ** 64))])
def test_sample_seed_and_stream_id_range(capsys, flag, value):
    streams = {"--seed": "0", "--stream-id": "0", flag: value}
    code, out, err = run_cli(capsys, "sample", "--process", "space",
                             "--alpha", "0.7", "--lambda", "1", "--t", "1",
                             "--n", "3", *(x for kv in streams.items()
                                           for x in kv))
    assert code == 1 and out == ""
    assert "must lie in [0, 2**64)" in err


def test_verify_seed_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "ode", "--alpha",
                           "0.7", "--lambda", "1", "--t", "1", "--seed", "-1")
    assert code == 1
    assert "must lie in [0, 2**64)" in err


def test_sample_threads_validated(capsys):
    code, out, err = run_cli(capsys, "sample", "--process", "space",
                             "--lambda", "1", "--t", "1", "--n", "3",
                             "--seed", "0", "--threads", "-2")
    assert code == 1 and out == ""
    assert "threads must be >= 1" in err


def test_sample_default_threads_same_bytes(capsys):
    """Without --threads the chunks fan out over the usable CPUs; the
    bytes are those of one thread."""
    argv = ("sample", "--process", "space-time", "--alpha", "0.6", "--nu",
            "0.7", "--lambda", "1", "--t", "1", "--n", "140000", "--seed", "3")
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert run_cli(capsys, *argv, "--threads", "1") == default


@pytest.mark.parametrize("argv", [
    ["pmf", "--lambda", "1", "--t", "1", "--kmax", "1", "--threads", "2"],
    ["verify", "--suite", "ode", "--alpha", "0.7", "--lambda", "1", "--t",
     "1", "--threads", "2"],
    ["sample", "--process", "space", "--lambda", "1", "--t", "1", "--n",
     "3", "--seed", "0", "--tol", "1e-9"],
    ["sample", "--process", "space", "--lambda", "1", "--t", "1", "--n",
     "3", "--seed", "0", "--max-terms", "5"],
], ids=["pmf-threads", "verify-threads", "sample-tol", "sample-max-terms"])
def test_unread_flags_are_usage_errors(capsys, argv):
    """Each subcommand takes only the flags it reads."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["--suite", "min-uniform", "--lambda", "1", "--t", "1", "--n", "0"],
    ["--suite", "pmf-mc", "--lambda", "1", "--t", "1", "--n", "100"],
    ["--suite", "pmf-mc", "--lambda", "1", "--t", "0"],
    ["--suite", "ode", "--alpha", "0.7", "--lambda", "1", "--t", "0"],
    ["--suite", "subordination", "--alpha", "0.7", "--lambda", "1", "--t",
     "1"],
], ids=["min-uniform-n0", "pmf-mc-n100", "pmf-mc-t0", "ode-t0",
        "subordination-no-gamma"])
def test_verify_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert "error" in err


# lam**alpha * t**nu overflows although lam and t are finite
OVERFLOW = "lam**alpha * t**nu must be finite"


@pytest.mark.parametrize("argv, message", [
    (["pmf", "--lambda", "1", "--t", "-1", "--kmax", "2"], "t must"),
    (["pgf", "--lambda", "1", "--t", "-1", "--u", "0.5"], "t must"),
    (["pgf", "--lambda", "1", "--nu", "0.5", "--t", "nan", "--u", "0.5"],
     "t must be finite"),
    (["pmf", "--lambda", "1", "--t", "nan", "--kmax", "2"],
     "t must be finite"),
    (["pmf", "--lambda", "inf", "--t", "1", "--kmax", "2"],
     "lam must be finite"),
    (["pmf", "--lambda", "1", "--alpha", "0.5", "--t", "inf", "--kmax", "2"],
     "t must be finite"),
    (["passage", "--lambda", "1", "--alpha", "0.5", "--k", "2", "--t", "nan"],
     "t must be finite"),
    (["pgf", "--lambda", "1", "--t", "1", "--u", "nan"], "u must"),
    (["sample", "--process", "time", "--lambda", "1", "--nu", "0.5", "--t",
      "inf", "--n", "3", "--seed", "0"], "t must be finite"),
    (["verify", "--suite", "min-uniform", "--lambda", "1", "--t", "nan",
      "--n", "1000"], "t must be finite"),
    (["passage", "--lambda", "1", "--alpha", "0.5", "--k", "2", "--tmax",
      "inf"], "--tmax must be finite"),
    (["passage", "--lambda", "1", "--alpha", "0.5", "--k", "1", "--t", "0"],
     "passage times must be > 0"),
    (["pmf", "--lambda", "1e300", "--nu", "0.5", "--t", "1e300", "--kmax",
      "2"], OVERFLOW),
    (["pmf", "--lambda", "1e300", "--alpha", "0.5", "--t", "1e300",
      "--kmax", "2"], OVERFLOW),
    (["pmf", "--lambda", "1e300", "--t", "1e300", "--kmax", "1"], OVERFLOW),
    (["pgf", "--lambda", "1e300", "--t", "1e300", "--u", "0.5"], OVERFLOW),
    (["pgf", "--lambda", "1e300", "--nu", "0.5", "--t", "1e300", "--u",
      "0.5"], OVERFLOW),
    (["passage", "--lambda", "1e300", "--alpha", "0.5", "--k", "2", "--t",
      "1e300"], OVERFLOW),
    (["passage", "--lambda", "1e300", "--k", "2", "--t", "1e300"], OVERFLOW),
    (["pmf", "--lambda", "1", "--nu", "0.5", "--t", "1", "--kmax", "2",
      "--tol", "inf"], "rel_tol must be finite"),
    (["pgf", "--lambda", "1", "--nu", "0.5", "--t", "1", "--u", "0.5",
      "--tol", "inf"], "rel_tol must be finite"),
], ids=["pmf-t-neg", "pgf-t-neg", "pgf-t-nan-nu", "pmf-t-nan", "pmf-lam-inf",
        "pmf-t-inf", "passage-t-nan", "pgf-u-nan", "sample-t-inf",
        "min-uniform-t-nan", "passage-tmax-inf", "passage-t-zero",
        "pmf-arg-inf-nu", "pmf-arg-inf-alpha", "pmf-arg-inf", "pgf-arg-inf",
        "pgf-arg-inf-nu", "passage-arg-inf-alpha", "passage-arg-inf",
        "pmf-tol-inf", "pgf-tol-inf"])
def test_bad_numbers_are_usage_errors(capsys, argv, message):
    """Values outside the domain end in exit 1 with the library's or the
    CLI's message, not in a traceback, a warning or a table of nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err and "RuntimeWarning" not in err


def test_composed_clock_overflow_is_capped(capsys):
    """t**(1/gamma) overflows: the clock goes to inf and every count to the
    cap, as for the other clocks."""
    code, out, _ = run_cli(capsys, "sample", "--process", "composed",
                           "--lambda", "1", "--alpha", "0.5", "--gamma",
                           "0.5", "--t", "1e200", "--n", "3", "--seed", "0")
    assert code == 0
    counts = [int(r["count"]) for r in csv.DictReader(io.StringIO(out))]
    assert counts == [sample._COUNT_CAP] * 3


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_output_matches_dict_rows(tmp_path, capsys, monkeypatch, fmt,
                                         block):
    """Counts written straight from the array, in one block or several,
    give the bytes of the per-row dicts written by ``_emit``."""
    if block is not None:
        monkeypatch.setattr(cli, "_COUNT_BLOCK", block)
    argv = ["sample", "--process", "space-time", "--alpha", "0.7", "--nu",
            "0.6", "--lambda", "2", "--t", "1.5", "--n", "50", "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    batch = sample.sample_batch("space-time", ProcessParams(2.0, 0.7, 0.6),
                                1.5, 50, sample.RngStream(7))
    rows = [{"count": int(c)} for c in batch.counts]
    assert payload["rows"] == rows
    got, want = tmp_path / "got", tmp_path / "want"
    assert cli.main(argv + ["--format", fmt, "--out", str(got)]) == 0
    cli._emit(rows, payload["meta"], fmt, str(want))
    assert got.read_bytes() == want.read_bytes()


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_cli_import_loads_no_scipy():
    out = _run_python(
        "import sys, fracpois.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'));"
        "print('numpy.random' in sys.modules)")
    assert out.split("\n")[:2] == ["[]", "True"]


def test_commands_run_with_scipy_blocked():
    out = _run_python("""
import sys
sys.modules["scipy"] = None
from fracpois import cli, dist
law = ["--alpha", "0.5", "--lambda", "1", "--t", "1"]
for argv in (["pmf", *law, "--kmax", "5"], ["pgf", *law, "--u", "0.3"],
             ["passage", "--alpha", "0.5", "--lambda", "1", "--k", "3",
              "--tmax", "2", "--steps", "3"],
             ["verify", "--suite", "pmf-mc", *law, "--n", "20000"]):
    assert cli.main(argv) == 0, argv
print(dist.first_passage_cdf(dist.ProcessParams(1.0, 0.5), 1.0, 11).value)
""")
    sv = float(out.splitlines()[-1])
    assert sv == pytest.approx(0.1746649939382278, rel=1e-13)
