import csv
import io
import json
import math
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


def test_pgf_value(capsys):
    code, out, _ = run_cli(capsys, "pgf", "--lambda", "1.0", "--t", "1.0",
                           "--alpha", "0.5", "--u", "0.5", "--format", "json")
    assert code == 0
    val = json.loads(out)["rows"][0]["value"]
    assert val == pytest.approx(math.exp(-math.sqrt(0.5)), rel=1e-12)


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


def test_nonconvergence_exit_code_2(capsys):
    code, _, err = run_cli(capsys, "pmf", "--lambda", "5.0", "--alpha", "0.5",
                           "--t", "1.0", "--kmax", "5", "--max-terms", "5")
    assert code == 2
    assert "non-convergence" in err


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

    def record(alpha, lam, t, u, n, rng):
        streams.append(_first_draws(rng))
        return verify.MinUniformResult(0.5, 0.5, 0.0)

    monkeypatch.setattr(verify, "check_min_uniform_space", record)
    code, _, _ = run_cli(capsys, "verify", "--suite", "min-uniform",
                         "--alpha", "0.7", "--lambda", "1", "--t", "1")
    assert code == 0
    assert len(streams) == 3 and len(set(streams)) == 3


def test_sample_meta_reports_redraws(capsys, monkeypatch):
    stable_unit = sample._stable_unit
    redraws = []

    def one_more(gamma, size, gen):
        s, rd = stable_unit(gamma, size, gen)
        redraws.append(rd + 1)
        return s, rd + 1

    monkeypatch.setattr(sample, "_stable_unit", one_more)
    code, out, _ = run_cli(capsys, "sample", "--process", "space-time",
                           "--lambda", "1", "--alpha", "0.5", "--nu", "0.7",
                           "--t", "1", "--n", "10", "--seed", "0",
                           "--format", "json")
    assert code == 0
    assert len(redraws) == 2
    assert json.loads(out)["meta"]["redraws"] == sum(redraws)
