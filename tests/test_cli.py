"""Command-line behavior: file naming, CSV schema, reproducibility,
config handling, and the verify suites (including their ability to
catch a deliberately broken solver)."""

import builtins
import csv
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

import verify_reference
from crsum import ConvergenceFailureError, SolverFailureError, UsageError
from crsum import cli, perstate_bc
from crsum.cli import main
from crsum.fading import MAX_ENSEMBLE_BYTES

HEADER_PREFIX = ["case", "P_dB", "Q_dB", "Gamma", "rate_nats",
                 "rate_stderr", "gap", "max_lt_viol"]


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_custom_run_schema(tmp_path):
    rc = main(["run", "--channel", "mac", "--case", "II", "--K", "2",
               "--M", "1", "--P-dB", "0,10", "--samples", "80",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "custom_II_full.csv"
    rows = _read(out)
    assert rows[0] == HEADER_PREFIX + ["hist_0", "hist_1", "hist_2",
                                       "certified", "n_evals", "stop_reason"]
    assert len(rows) == 3
    assert rows[1][0] == "II"
    assert float(rows[2][4]) > float(rows[1][4])  # more power, more rate
    assert sum(int(x) for x in rows[1][8:11]) == 80
    for row in rows[1:]:
        assert row[11] == "true"
        assert int(row[12]) >= 1
        assert row[13] == "gap"


def test_descending_case3_sweep_exits_0(tmp_path):
    """Case III at a falling P: each point's ST caps shrink, so the
    curve's column pool restarts instead of mixing columns above them."""
    assert main(["run", "--channel", "mac", "--case", "III", "--K", "2",
                 "--P-dB=25,0,-5", "--samples", "300",
                 "--out", str(tmp_path)]) == 0
    rows = _read(tmp_path / "custom_III_full.csv")
    assert [r[11] for r in rows[1:]] == ["true"] * 3


def test_strict_fails_on_an_uncertified_point(tmp_path, capsys):
    """Three states leave the TDMA rounding gap open: the CSV flags the
    point, and --strict turns it into an error."""
    argv = ["run", "--channel", "mac", "--case", "II", "--mode", "tdma",
            "--K", "3", "--P-dB", "0", "--samples", "3", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    row = _read(tmp_path / "custom_II_tdma.csv")[1]
    assert row[-3] == "false" and row[-1] == "rounding"
    assert main(argv + ["--strict"]) == 1
    assert "is not certified" in capsys.readouterr().err


def test_rerun_byte_identical(tmp_path):
    argv = ["run", "--channel", "mac", "--case", "I", "--K", "2",
            "--P-dB", "5", "--samples", "60", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    fa, fb = a / "custom_I_full.csv", b / "custom_I_full.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_preset_files_and_filters(tmp_path):
    rc = main(["run", "--preset", "fig5", "--P-dB", "0", "--samples", "40",
               "--mode", "tdma", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fig5_III_tdma.csv", "fig5_II_tdma.csv",
                     "fig5_IV_tdma.csv"]


def test_preset_case_filter(tmp_path):
    rc = main(["run", "--preset", "fig3", "--P-dB", "0,5", "--samples", "40",
               "--case", "iv", "--out", str(tmp_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.glob("*.csv")] == ["fig3_IV_full.csv"]


def test_fig8_stem_naming(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[run]\nsamples = 30\nseed = 2\n\n[fig8]\nk_sweep = 2,3\n")
    rc = main(["run", "--preset", "fig8", "--config", str(cfgfile),
               "--out", str(tmp_path / "r")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "r").glob("*.csv"))
    assert "fig8M1_I_full_K02.csv" in names
    assert "fig8M4_IV_fra_K03.csv" in names
    assert len(names) == 8
    rows = _read(tmp_path / "r" / "fig8M1_I_full_K02.csv")
    assert rows[1][2] == "3.0"  # Q_dB column carries the sweep point


def test_config_sets_run_defaults(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[run]\nsamples = 50\nseed = 7\nout = {tmp_path}/cfg\n")
    rc = main(["run", "--channel", "mac", "--case", "I", "--K", "2",
               "--P-dB", "0", "--config", str(cfgfile)])
    assert rc == 0
    assert (tmp_path / "cfg" / "custom_I_full.csv").exists()


def test_zero_samples_rejected(tmp_path, capsys):
    """0 states is a usage error, not a silent fall-back to the default."""
    argv = ["run", "--channel", "mac", "--case", "IV", "--K", "2",
            "--P-dB", "0", "--out", str(tmp_path)]
    assert main(argv + ["--samples", "0"]) == 2
    assert "samples" in capsys.readouterr().err
    assert main(argv + ["--samples", "-3"]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_zero_samples_in_config_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\nsamples = 0\n")
    argv = ["run", "--channel", "mac", "--case", "IV", "--K", "2",
            "--P-dB", "0", "--config", str(cfgfile), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "samples" in capsys.readouterr().err
    cfgfile.write_text("[run]\nsamples = many\n")
    assert main(argv) == 2
    assert not list(tmp_path.glob("*.csv"))
    # the command line still wins over the config file
    cfgfile.write_text("[run]\nsamples = 0\n")
    assert main(argv + ["--samples", "20"]) == 0


def test_convergence_dump(tmp_path):
    rc = main(["run", "--channel", "mac", "--case", "I", "--K", "2",
               "--P-dB", "0", "--samples", "40", "--out", str(tmp_path),
               "--convergence"])
    assert rc == 0
    trace = _read(tmp_path / "custom_I_full_conv.csv")
    assert trace[0] == ["iter", "dual_value", "max_lt_violation", "gap"]
    assert len(trace) > 2


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(["run", "--channel", "mac", "--case", "V", "--K", "2",
                 "--out", str(tmp_path)]) == 2
    assert main(["run", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["verify", "--perturb", "bogus"]) == 2
    assert "unknown perturbation" in capsys.readouterr().err
    # a reversed range or an empty list is no grid, not a shorter curve;
    # a valid range includes its stop
    assert cli._grid("-5:25:5") == [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
    assert len(cli._grid("0:1:0.1")) == 11 and cli._grid("0:1:0.1")[-1] == 1.0
    assert cli._grid("3:3:1") == [3.0]
    for grid in ("--P-dB=25:-5:5", "--P-dB=,"):
        assert main(["run", "--channel", "mac", "--case", "I", "--K", "2",
                     grid, "--samples", "10", "--out", str(tmp_path)]) == 2
        assert "grid" in capsys.readouterr().err
    assert main(["run", "--channel", "bc", "--case", "I", "--K", "2",
                 "--Q-dB=5:0:1", "--samples", "10", "--out", str(tmp_path)]) == 2
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[fig3]\np_db = 25:-5:5\n")
    assert main(["run", "--preset", "fig3", "--config", str(cfgfile),
                 "--samples", "10", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag,section,line,key", [
    ("--P-dB=abc", None, None, "--P-dB"),
    ("--Q-dB=abc", None, None, "--Q-dB"),
    (None, "run", "seed = abc", "[run] seed"),
    (None, "fig3", "p_db = 0,abc", "p_db"),
    (None, "fig4", "q_db = 1:x:2", "q_db"),
    (None, "fig3", "gamma = abc", "gamma"),
    (None, "fig8", "q_db = abc", "q_db"),
    (None, "fig8", "k_sweep = 4,x", "k_sweep"),
])
def test_non_numeric_values_exit_2(flag, section, line, key, tmp_path, capsys):
    """A value that is not a number is a usage error that names its key,
    not a ValueError traceback."""
    if flag:
        channel = "bc" if "Q" in flag else "mac"
        argv = ["run", "--channel", channel, "--case", "I", "--K", "2", flag]
    else:
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[{section}]\n{line}\n")
        argv = ["run", "--preset", "fig3" if section == "run" else section,
                "--config", str(cfgfile)]
    assert main(argv + ["--samples", "10", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_configuration_error_exits_2(tmp_path, capsys):
    assert main(["run", "--channel", "mac", "--case", "I", "--K", "2",
                 "--P-dB", "0", "--gamma", "-1", "--samples", "10",
                 "--out", str(tmp_path)]) == 2
    assert "ipc thresholds" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [SolverFailureError("no KKT point"),
                                 ConvergenceFailureError("dual loop stalled")])
def test_solver_failures_exit_1(exc, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "ergodic_capacity_mac", failing)
    assert main(["run", "--channel", "mac", "--case", "I", "--K", "2",
                 "--P-dB", "0", "--samples", "10",
                 "--out", str(tmp_path)]) == 1
    assert str(exc) in capsys.readouterr().err


ADDRESS_LIMIT = 1 << 30     # bytes of address space for an oversize-run subprocess


def _capped_run(argv):
    """`python argv` in a fresh interpreter whose address space is capped,
    so a guard that lets an oversize ensemble through fails at once with a
    MemoryError (exit 1) instead of allocating it."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          preexec_fn=cap, timeout=60,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


OVERSIZE = ["run", "--channel", "mac", "--case", "II", "--K", "20", "--M", "4"]


@pytest.mark.parametrize("how", ["flag", "config", "mac sampler", "bc sampler"])
def test_oversize_ensemble_refused_before_drawing(how, tmp_path):
    """10^7 states at K = 20, M = 4 take 8e9 bytes of MAC gains (1.92e9 at
    the BC): refused by estimate with exit 2 and the bytes named, from the
    command line, from a config file and in the library samplers."""
    assert 8 * 10**7 * (20 + 20 * 4) > 8 * 10**7 * (20 + 4) > MAX_ENSEMBLE_BYTES
    cfgfile = tmp_path / "big.ini"
    cfgfile.write_text("[run]\nsamples = 10000000\n")
    model = "FadingModel(K=20, M=4, n_states=10**7, seed=1)"
    argv = {
        "flag": ["-m", "crsum.cli", *OVERSIZE, "--samples", "10000000"],
        "config": ["-m", "crsum.cli", *OVERSIZE, "--config", str(cfgfile)],
        "mac sampler": ["-c", f"from crsum import *; sample_mac_states({model})"],
        "bc sampler": ["-c", f"from crsum import *; sample_bc_states({model})"],
    }[how]
    sampler = how.endswith("sampler")
    proc = _capped_run(argv if sampler else argv + ["--out", str(tmp_path / "out")])
    bytes_named = "1,920,000,000 bytes" if how == "bc sampler" else "8,000,000,000 bytes"
    assert bytes_named in proc.stderr, proc.stderr
    if sampler:
        assert "crsum.errors.UsageError" in proc.stderr
    else:
        assert proc.returncode == 2
        assert not (tmp_path / "out").exists()


def test_a_preset_is_refused_before_its_first_curve(tmp_path, monkeypatch, capsys):
    """fig8's largest ensemble (K = 20, M = 4) over the limit: nothing is
    drawn and no CSV written, though its first curves would fit."""
    monkeypatch.setattr(cli, "sample_bc_states", None)      # drawing would fail
    samples = MAX_ENSEMBLE_BYTES // (8 * 24) + 1
    rc = main(["run", "--preset", "fig8", "--samples", str(samples),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "K = 20, M = 4" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


SUITE_CHECKS = 40


def _corner_values(problems, grid_step):
    """Each problem's objective at its upper corner: a quick stand-in for
    the grid oracle, which both suites call alike, that still reads every
    problem the suite built."""
    return [(None, float(obj(np.asarray(upper, dtype=float)[None])[0]))
            for obj, upper, _ in problems]


def _suite_run(module, suite, seed, perturb, monkeypatch):
    """One run of `module`'s suite, its (label, ok, detail) lines and the
    running maxima of its `max` calls, recorded in order."""
    maxima = []

    def recorded(a, b):
        maxima.append(builtins.max(a, b))
        return maxima[-1]
    monkeypatch.setattr(module, "max", recorded, raising=False)
    monkeypatch.setattr(module, "grid_state_oracles", _corner_values)
    lines = getattr(module, f"_suite_{suite}")(
        cli._power_factors(perturb), np.random.Generator(np.random.Philox(key=seed)),
        SUITE_CHECKS)
    monkeypatch.undo()
    return lines, maxima


@pytest.mark.parametrize("perturb", [None, "case1_power", "case2_power",
                                     "case3_power", "case4_power"])
@pytest.mark.parametrize("seed", [0, 3, 5])
@pytest.mark.parametrize("suite", ["perstate", "tdma"])
def test_batched_suites_match_the_scalar_reference(suite, seed, perturb, monkeypatch):
    """The perstate and tdma suites, which solve each (K, M) of their draws
    in one call, print what the scalar suites of `verify_reference` print,
    against the same stand-in oracle. The perstate suite's worst values
    agree as floats: both suites end with one `max` per oracle problem (4
    per check), after the KKT maxima."""
    got, got_max = _suite_run(cli, suite, seed, perturb, monkeypatch)
    want, want_max = _suite_run(verify_reference, suite, seed, perturb, monkeypatch)
    assert got == want
    if suite == "perstate":
        tail = 4 * SUITE_CHECKS
        assert len(got_max) > tail and len(want_max) == 2 * tail
        assert (got_max[-tail - 1], got_max[-1]) == (want_max[-tail - 1], want_max[-1])
        assert want_max[-1] > 0.0 and want_max[-tail - 1] > 0.0


def test_verify_clean(capsys):
    rc = main(["verify", "--suite", "bc", "--checks", "5", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS [bc]" in out
    assert "0 failure(s)" in out


@pytest.mark.parametrize("perturb,suite", [
    ("case1_power", "perstate"),
    ("case2_power", "perstate"),
    ("case3_power", "perstate"),
    ("case4_power", "perstate"),
    ("case2_power", "tdma"),
    ("case3_power", "tdma"),
    ("case4_power", "tdma"),
    ("bc_power", "bc"),
    ("case1_power", "dual"),
    ("case2_power", "dual"),
    ("case3_power", "dual"),
])
def test_verify_catches_broken_solver(perturb, suite, capsys):
    rc = main(["verify", "--suite", suite, "--checks", "4", "--seed", "3",
               "--perturb", perturb])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("perturb", ["case1_power", "case2_power", "case3_power",
                                     "case4_power"])
def test_grid_oracle_line_catches_a_5_percent_error(perturb, capsys):
    """The grid-oracle comparison fails on its own, not only the KKT line:
    each solver's powers off by 5% move some objective by more than the
    2e-4 bound at these settings."""
    rc = main(["verify", "--suite", "perstate", "--checks", "25", "--seed", "5",
               "--perturb", perturb])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL [perstate] perstate objective vs grid oracle: worst |diff|" in out


def test_verify_bc_catches_an_auxiliary_mac_off_by_1e7(monkeypatch, capsys):
    """The bc suite compares the one-user path with the auxiliary MAC at
    the optima of real dual solves; a relative error of 1e-7 in the
    auxiliary MAC's powers fails it."""
    powers_via_mac = perstate_bc.powers_via_mac
    monkeypatch.setattr(perstate_bc, "powers_via_mac",
                        lambda *args: powers_via_mac(*args) * (1.0 + 1e-7))
    rc = main(["verify", "--suite", "bc", "--checks", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL [bc]") and out.count("[bc]") == 1


def test_verify_bc_catches_an_auxiliary_mac_serving_another_user(monkeypatch, capsys):
    """Each path reports the users it serves: an auxiliary MAC that gives
    each state's power to the next user, with the same total, fails the
    bc suite's served-user and rate comparisons."""
    for name in ("solve_states_case1", "solve_states_case2"):
        solver = getattr(perstate_bc, name)
        monkeypatch.setattr(perstate_bc, name, lambda *args, solver=solver:
                            np.roll(solver(*args), 1, axis=1))
    rc = main(["verify", "--suite", "bc", "--checks", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL [bc]") and out.count("[bc]") == 1
    assert " 0 served users differ" not in out


def test_verify_rejects_zero_checks(capsys):
    """No checks would pass vacuously, even with a corrupted solver."""
    rc = main(["verify", "--suite", "perstate", "--checks", "0",
               "--perturb", "case2_power"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "checks" in captured.err
    assert "PASS" not in captured.out


def test_power_factors_scale_the_named_solver_only():
    """Every suite reads each solver's powers through one factor table."""
    keys = ["case1", "case2", "case3", "case4", "bc"]
    assert cli._power_factors(None) == dict.fromkeys(keys, 1.0)
    assert cli._power_factors("case3_power") == {
        "case1": 1.0, "case2": 1.0, "case3": 1.05, "case4": 1.0, "bc": 1.0}
    with pytest.raises(UsageError, match="unknown perturbation"):
        cli._power_factors("case5_power")


VERIFY_SPARSITY = ["verify", "--suite", "sparsity", "--checks", "2"]


def test_main_runs_in_a_fresh_interpreter():
    """`crsum.cli.main` in a new process, as the entry point calls it."""
    proc = subprocess.run([sys.executable, "-c",
                           "from crsum.cli import main; raise SystemExit("
                           f"main({VERIFY_SPARSITY!r}))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout


def test_console_script_on_path():
    """The `crsum` command that `pip install -e . --no-build-isolation`
    puts on PATH (skipped where the package is not installed)."""
    exe = shutil.which("crsum")
    if exe is None:
        pytest.skip("the crsum console script is not installed")
    proc = subprocess.run([exe, *VERIFY_SPARSITY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
