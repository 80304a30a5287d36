"""Synthetic experiment harness and the command-line front end."""

import math

import numpy as np
import pytest

from frgc import analysis, bitcoder, cli, codec, harness, qmap
from frgc.harness import (
    ASYMPTOTIC_SURROGATE,
    ExperimentSpec,
    Precision,
    exhaustive_best_m,
    gen_synthetic,
    mapped_values,
    mean_code_bits,
    run_fig6,
    run_table2,
    run_table3,
    symbol_code_lengths,
    write_csv,
)

import scalarfold
from bitsink import code_length


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as e:
        return e.code


# --- synthetic streams --------------------------------------------------------

def test_gen_deterministic_per_stream():
    a_xs, a_pred = gen_synthetic(0.4, 2000, seed=77, stream=3)
    b_xs, b_pred = gen_synthetic(0.4, 2000, seed=77, stream=3)
    c_xs, c_pred = gen_synthetic(0.4, 2000, seed=77, stream=4)
    assert np.array_equal(a_xs, b_xs) and np.array_equal(a_pred, b_pred)
    assert not np.array_equal(a_pred, c_pred)


def test_gen_shapes_and_alphabet():
    xs, preds = gen_synthetic(0.3, 5000, q=32, seed=1)
    assert xs.shape == preds.shape == (5000,)
    assert xs.dtype == np.int64
    assert xs.min() >= 0 and xs.max() < 32
    assert np.issubdtype(preds.dtype, np.floating)


def test_gen_residual_moments():
    xs, preds = gen_synthetic(0.5, 100_000, seed=1234)
    eps = xs - preds
    b = -1.0 / math.log(0.5)
    assert abs(np.mean(np.abs(eps)) - b) / b < 0.015
    assert abs(np.mean(eps >= 0) - 0.5) < 0.01


# --- vectorized twins -----------------------------------------------------------

def test_mapped_values_match_scalar_path():
    xs, preds = gen_synthetic(0.3, 400, seed=6)
    for p in (Precision(1, 1), Precision(4, 5), Precision(1, 16)):
        vec = mapped_values(xs, preds, p)
        for i in range(0, 400, 17):
            n = qmap.round_prediction(float(preds[i]), p)
            r = scalarfold.residual(int(xs[i]), n, p.tau)
            assert vec[i] == scalarfold.map_residual(r, p.tau)


def test_mapped_values_reject_asymptotic():
    xs, preds = gen_synthetic(0.3, 10, seed=6)
    with pytest.raises(ValueError):
        mapped_values(xs, preds, qmap.ASYMPTOTIC)


def test_mapped_values_refuse_tau_x_from_2_62():
    # codec._map_vector's range check guards the sweeps too; -2**63, which
    # np.abs leaves negative, must not slip past it
    p = Precision(1, 16)
    edge = (1 << 58) - 1  # 16 * edge < 2**62
    assert mapped_values([edge, -edge], [0.0, 0.0], p).tolist() == [2 * edge, 2 * edge - 1]
    for precision, x in ((p, 1 << 58), (p, -(1 << 58)), (p, (1 << 63) - 1),
                         (p, -(1 << 63)), (Precision(1, 1), -(1 << 63))):
        with pytest.raises(ValueError, match="overflows"):
            mapped_values([x], [0.0], precision)


def test_symbol_code_lengths_match_bitcoder():
    rng = np.random.default_rng(12)
    values = rng.integers(0, 5000, size=600)
    for m in (1, 3, 4, 21, 64):
        got = symbol_code_lengths(values, m)
        g = bitcoder.GolombParam(m)
        want = [code_length(int(v), g) for v in values]
        assert got.tolist() == want
        assert mean_code_bits(values, m) == pytest.approx(np.mean(want))


def test_exhaustive_best_m_matches_sweep():
    rng = np.random.default_rng(40)
    values = rng.geometric(0.23, size=4000) - 1
    best_m, best_bits = exhaustive_best_m(values, max_m=64)
    sweep = {m: mean_code_bits(values, m) for m in range(1, 65)}
    assert best_bits == pytest.approx(min(sweep.values()))
    assert sweep[best_m] == pytest.approx(best_bits)


def test_exhaustive_best_m_tie_prefers_smaller():
    # a single value 2 costs 3 bits at m = 1, 2, 3, and 4 alike
    best_m, bits = exhaustive_best_m(np.array([2]), max_m=8)
    assert (best_m, bits) == (1, 3.0)


# --- Monte Carlo agrees with the closed form ------------------------------------

def test_mc_mean_within_three_se_of_model():
    theta, m, p = 0.5, 2, Precision(1, 16)
    xs, preds = gen_synthetic(theta, 100_000, seed=1234, stream=0)
    lengths = symbol_code_lengths(mapped_values(xs, preds, p), m)
    diff = abs(float(np.mean(lengths)) - analysis.avg_code_length(m, theta, p))
    se = float(np.std(lengths)) / math.sqrt(len(lengths))
    assert diff <= 3.0 * se


# --- experiment runners -----------------------------------------------------------

def test_run_table2_reference_values():
    want = {
        "4/5": 22.340313820240226,
        "1/2": 7.392527130926094,
        "1/4": 1.7248241634827504,
        "1/8": 0.4248252337550853,
        "1/16": 0.1058104751309294,
        "1/32": 0.02642792536804343,
    }
    rows = run_table2()
    assert [r[0] for r in rows] == list(want)
    for label, value in rows:
        assert value == pytest.approx(want[label], rel=1e-9)


def small_spec(thetas, precisions, n=3000, seed=99):
    return ExperimentSpec(
        theta_grid=thetas, precisions=precisions, n_samples=n, alphabet_q=64, seed=seed
    )


def test_run_table3_schema_and_analytic_column():
    spec = small_spec((0.2, 0.5), (Precision(1, 1), Precision(1, 16), ASYMPTOTIC_SURROGATE))
    rows = run_table3(spec)
    assert len(rows) == 6
    for theta, label, bits, analytic in rows:
        assert label in ("1/1", "1/16", str(ASYMPTOTIC_SURROGATE))
        m = analysis.lookup_m(theta)
        assert analytic == pytest.approx(
            analysis.avg_code_length(m, theta, qmap.ASYMPTOTIC)
        )
        assert 0.5 < bits < 6.0
    assert rows == run_table3(spec)


def test_run_fig6_schema():
    spec = small_spec((0.3, 0.6), (Precision(1, 2), Precision(1, 16)))
    rows = run_fig6(spec)
    assert len(rows) == 4
    for theta, label, pct in rows:
        assert theta in (0.3, 0.6)
        assert label in ("1/2", "1/16")
        assert -5.0 < pct < 50.0
    # coarse grids never beat fine ones by much; 1/2 exceeds 1/16 here
    by_label = {}
    for theta, label, pct in rows:
        by_label.setdefault(label, []).append(pct)
    assert np.mean(by_label["1/2"]) > np.mean(by_label["1/16"])


def test_spec_validation():
    good = small_spec((0.5,), (Precision(1, 2),))
    assert good.n_samples == 3000
    for bad in (
        dict(theta_grid=(0.0,)),
        dict(theta_grid=(1.0,)),
        dict(n_samples=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(alphabet_q=0),
    ):
        kwargs = dict(
            theta_grid=(0.5,),
            precisions=(Precision(1, 2),),
            n_samples=100,
            alphabet_q=8,
            seed=1,
        )
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)


def test_write_csv_deterministic(tmp_path):
    rows = [(0.3, "1/2", 1.5), (0.6, "1/16", 0.25)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, harness.FIG6_FIELDS, rows)
    write_csv(b, harness.FIG6_FIELDS, rows)
    text = a.read_text()
    assert text == b.read_text()
    assert text.splitlines()[0] == "theta,precision,redundancy_pct"
    assert len(text.splitlines()) == 3


# --- command line ------------------------------------------------------------------

@pytest.fixture
def intfile(tmp_path):
    path = tmp_path / "xs.txt"
    rng = np.random.default_rng(20)
    xs = rng.integers(0, 200, size=400)
    path.write_text("\n".join(str(int(v)) for v in xs) + "\n")
    return path, xs


def test_cli_encode_decode_roundtrip(tmp_path, intfile, capsys):
    path, xs = intfile
    enc, dec = tmp_path / "xs.frgc", tmp_path / "back.txt"
    assert run_cli(["encode", "--in", str(path), "--out", str(enc)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "400 symbols" in out and "bits/symbol" in out
    assert run_cli(["decode", "--in", str(enc), "--out", str(dec)]) == cli.EXIT_OK
    back = [int(line) for line in dec.read_text().split()]
    assert back == xs.tolist()


def test_cli_external_predictions(tmp_path, intfile):
    path, xs = intfile
    preds = tmp_path / "preds.txt"
    preds.write_text("\n".join(f"{float(v) - 0.25!r}" for v in xs) + "\n")
    enc, dec = tmp_path / "xs.frgc", tmp_path / "back.txt"
    code = run_cli(
        ["encode", "--in", str(path), "--out", str(enc),
         "--mode", "fixed", "--m", "2", "--tau", "4",
         "--predictor", f"ext:{preds}"]
    )
    assert code == cli.EXIT_OK
    code = run_cli(
        ["decode", "--in", str(enc), "--out", str(dec), "--predictor", f"ext:{preds}"]
    )
    assert code == cli.EXIT_OK
    assert [int(v) for v in dec.read_text().split()] == xs.tolist()


def test_cli_roundtrip_command(intfile):
    path, _ = intfile
    assert run_cli(["roundtrip", "--in", str(path)]) == cli.EXIT_OK
    assert run_cli(["roundtrip", "--in", str(path), "--mode", "rice", "--m", "1"]) == cli.EXIT_OK


def test_cli_rice_refuses_a_precision_other_than_one(tmp_path, intfile, capsys):
    # rice codes at 1/1: an explicit --rho or --tau of 1 is accepted, any
    # other value is a usage error rather than silently dropped
    path, _ = intfile
    enc = ["encode", "--in", str(path), "--out", str(tmp_path / "o.frgc"),
           "--mode", "rice", "--m", "2"]
    for flags in (["--rho", "3", "--tau", "5"], ["--tau", "16"], ["--rho", "2"]):
        assert run_cli(enc + flags) == cli.EXIT_USAGE
        assert "rice mode requires rho=tau=1" in capsys.readouterr().err
    for flags in ([], ["--rho", "1", "--tau", "1"]):
        assert run_cli(enc + flags) == cli.EXIT_OK
        assert "(rice, 1/1," in capsys.readouterr().out
    assert run_cli(["roundtrip", "--in", str(path), "--mode", "rice", "--m", "1",
                    "--tau", "4"]) == cli.EXIT_USAGE


def test_cli_usage_errors(tmp_path, intfile):
    path, _ = intfile
    out = tmp_path / "o.frgc"
    # unknown option
    assert run_cli(["encode", "--nope"]) == cli.EXIT_USAGE
    # fixed mode without --m
    assert (
        run_cli(["encode", "--in", str(path), "--out", str(out), "--mode", "fixed"])
        == cli.EXIT_USAGE
    )
    # adaptive mode with --m
    assert (
        run_cli(["encode", "--in", str(path), "--out", str(out), "--m", "4"])
        == cli.EXIT_USAGE
    )
    # decode cannot rebuild lpc predictions from a flag
    assert (
        run_cli(["decode", "--in", str(path), "--out", str(out),
                 "--predictor", "lpc:2,16,16"])
        == cli.EXIT_USAGE
    )
    # malformed predictor spec
    assert (
        run_cli(["encode", "--in", str(path), "--out", str(out),
                 "--predictor", "magic"])
        == cli.EXIT_USAGE
    )


def test_cli_data_errors(tmp_path, intfile, capsys):
    path, _ = intfile
    missing = tmp_path / "nothere.txt"
    out = tmp_path / "o"
    assert run_cli(["encode", "--in", str(missing), "--out", str(out)]) == cli.EXIT_DATA
    # not a stream
    bad = tmp_path / "bad.frgc"
    bad.write_bytes(b"this is not a stream at all")
    assert run_cli(["decode", "--in", str(bad), "--out", str(out)]) == cli.EXIT_DATA
    # truncated stream
    enc = tmp_path / "xs.frgc"
    assert run_cli(["encode", "--in", str(path), "--out", str(enc)]) == cli.EXIT_OK
    enc.write_bytes(enc.read_bytes()[:-2])
    assert run_cli(["decode", "--in", str(enc), "--out", str(out)]) == cli.EXIT_DATA
    # non-integer symbol text
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("12\nbanana\n")
    assert run_cli(["encode", "--in", str(alpha), "--out", str(out)]) == cli.EXIT_DATA
    # a symbol past int64 is out of range, not of the wrong dtype
    huge = tmp_path / "huge.txt"
    huge.write_text(f"12\n{1 << 70}\n")
    capsys.readouterr()
    assert run_cli(["encode", "--in", str(huge), "--out", str(out)]) == cli.EXIT_DATA
    assert "symbols outside" in capsys.readouterr().err


def test_cli_mismatch_exit(intfile, monkeypatch):
    path, _ = intfile

    real = codec.decode_stream

    def corrupted(data, predictions=None):
        out = real(data, predictions=predictions)
        out[0] ^= 1
        return out

    monkeypatch.setattr(codec, "decode_stream", corrupted)
    assert run_cli(["roundtrip", "--in", str(path)]) == cli.EXIT_MISMATCH


def test_cli_analyze_table2(tmp_path):
    out = tmp_path / "t2.csv"
    assert run_cli(["analyze", "table2", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "precision,max_redundancy_pct"
    assert len(lines) == 7


@pytest.mark.parametrize("experiment", ["table2", "table3", "fig6"])
@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "n_samples must be >= 1, got 0"),
    ("--seed", "-1", "seed must be a 64-bit integer, got -1"),
])
def test_cli_analyze_bad_arguments_are_usage_errors(experiment, flag, value, message,
                                                    tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["analyze", experiment, flag, value, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"frgc analyze: {message}\n"
    assert not out.exists()


def test_cli_analyze_small_table3(tmp_path):
    out = tmp_path / "t3.csv"
    assert run_cli(["analyze", "table3", "--n", "2000", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,precision,bits_per_symbol,analytic"
    assert len(lines) == 1 + 6 * 8

