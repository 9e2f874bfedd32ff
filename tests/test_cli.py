import argparse
import contextlib
import inspect
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp_st

from optomo import (
    FockSuperposition,
    GaussianState,
    MixedState,
    TomogramGrid,
    gaussian_row,
    analytic_moments,
    load_tomogram_csv,
    operator_trifonov_lhs,
    purity_classify,
    save_state,
    save_tomogram_csv,
    tomogram_grid,
    trifonov_lhs,
    trifonov_sweep,
    uniform_phases,
    vacuum,
)
from optomo import cli
from optomo.homodyne import STDERR_SIGMAS
from optomo.inequalities import DEFAULT_TOLERANCE
from optomo.purity import PURITY_TOL
from optomo.tomography import DEFAULT_N_PHASES, DEFAULT_N_X
from optomo.cli import _parsers, build_parser, main


@pytest.fixture()
def workspace(tmp_path):
    save_state(vacuum(), tmp_path / "vacuum.json")
    save_state(GaussianState(0.0, 0.0, 2.0), tmp_path / "s2.json")
    save_state(GaussianState(0.0, 0.0, 0.5), tmp_path / "shalf.json")
    xs = np.linspace(-4.0, 4.0, 257)
    row = gaussian_row(xs, 0.0, 0.1)
    row = row / np.trapezoid(row, xs)
    grid = TomogramGrid(uniform_phases(8), xs, np.tile(row, (8, 1)))
    save_tomogram_csv(grid, tmp_path / "classical.csv")
    return tmp_path


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_state_validate(workspace, capsys):
    code = main(["state", "validate", "--state", str(workspace / "vacuum.json")])
    assert code == 0
    payload = _last_json(capsys)
    assert payload["valid"] is True
    assert payload["spec"]["type"] == "gaussian"


def test_state_validate_rejects_bad_spec(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text('{"type": "gaussian", "mean_q": 0}')
    assert main(["state", "validate", "--state", str(bad)]) == 2


def test_tomogram_then_check_heisenberg_round_trip(workspace, capsys):
    csv = workspace / "w.csv"
    code = main(
        [
            "tomogram",
            "--state",
            str(workspace / "vacuum.json"),
            "--phases",
            "8",
            "--out",
            str(csv),
        ]
    )
    assert code == 0
    assert csv.exists()
    report_path = workspace / "rep.json"
    code = main(
        ["check", "heisenberg", "--tomogram", str(csv), "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["satisfied"] is True
    assert abs(report["lhs"] - 0.25) < 1e-6


def test_tomogram_window_flags_set_the_x_grid(workspace, capsys):
    out = workspace / "win.csv"
    code = main(["tomogram", "--state", str(workspace / "vacuum.json"), "--phases", "4",
                 "--points", "257", "--x-min", "-7.5", "--x-max", "8.25", "--out", str(out)])
    assert code == 0
    payload = _last_json(capsys)
    assert (payload["x_min"], payload["x_max"]) == (-7.5, 8.25)
    xs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(xs, np.tile(np.linspace(-7.5, 8.25, 257), 4))


def test_check_trifonov_from_states(workspace, capsys):
    code = main(
        [
            "check",
            "trifonov",
            "--state1",
            str(workspace / "s2.json"),
            "--state2",
            str(workspace / "shalf.json"),
            "--theta",
            "0",
        ]
    )
    assert code == 0
    payload = _last_json(capsys)
    assert abs(payload["lhs"] - 0.53125) < 1e-6
    assert payload["satisfied"] is True


def test_check_trifonov_accepts_a_phase_just_below_zero(workspace, capsys):
    # -1e-20 + pi rounds to pi, so the phase must be reduced by wrap_phase
    args = ["check", "trifonov", "--state1", str(workspace / "s2.json"),
            "--state2", str(workspace / "s2.json")]
    assert main(args + ["--theta=-1e-20"]) == 0
    near_zero = _last_json(capsys)
    # argparse alone reads the space-separated "-1e-20" as a flag
    assert main(args + ["--theta", "-1e-20"]) == 0
    assert _last_json(capsys) == near_zero
    assert main(args + ["--theta", "0"]) == 0
    at_zero = _last_json(capsys)
    assert abs(near_zero["lhs"] - at_zero["lhs"]) <= 1e-12


def test_seam_phases_read_the_stored_phase(workspace, capsys):
    w = str(workspace / "w.csv")
    assert main(["tomogram", "--state", str(workspace / "s2.json"), "--phases", "16", "--out", w]) == 0
    check = ["check", "trifonov", "--tomogram1", w, "--tomogram2", w, "--theta"]
    lhs = {}
    for theta in ("1.5707963267", "1.5707963267948966", "-1e-12", "3.1415926535", "0"):
        assert main(check + [theta]) == 0
        lhs[theta] = _last_json(capsys)["lhs"]
    assert lhs["1.5707963267"] == lhs["1.5707963267948966"]
    assert lhs["-1e-12"] == lhs["3.1415926535"] == lhs["0"]
    assert main(check + ["0.1"]) == 2
    assert "not on the grid" in capsys.readouterr().err
    data = str(workspace / "d.csv")
    args = ["--state", str(workspace / "s2.json"), "--thetas", "0,1.5707963267948966"]
    assert main(["simulate", *args, "--shots", "200", "--seed", "4", "--out", data]) == 0
    capsys.readouterr()
    assert main(["check", "trifonov", "--data1", data, "--data2", data, "--theta", "1.5707963267"]) == 0
    estimates = []
    for theta in ("-1e-12", "0"):
        assert main(["estimate", "--data", data, "--theta", theta]) == 0
        payload = _last_json(capsys)
        estimates.append((payload["mean"], payload["variance"]))
    assert estimates[0] == estimates[1]
    assert main(["estimate", "--data", data, "--theta", "0.1"]) == 2
    assert "got 0" in capsys.readouterr().err


def test_check_trifonov_violation_exit_code(workspace, capsys):
    code = main(
        [
            "check",
            "trifonov",
            "--tomogram1",
            str(workspace / "classical.csv"),
            "--tomogram2",
            str(workspace / "classical.csv"),
            "--theta",
            "0",
        ]
    )
    assert code == 1
    payload = _last_json(capsys)
    assert payload["satisfied"] is False
    assert abs(payload["lhs"] - 0.01) < 1e-4


def test_sweep_trifonov(workspace, capsys):
    code = main(
        [
            "sweep",
            "trifonov",
            "--state1",
            str(workspace / "s2.json"),
            "--state2",
            str(workspace / "shalf.json"),
            "--phases",
            "16",
        ]
    )
    assert code == 0
    payload = _last_json(capsys)
    assert payload["kind"] == "trifonov_sweep"
    assert abs(payload["lhs"] - 0.390625) < 1e-6
    assert abs(payload["phase"] - math.pi / 4) <= math.pi / 16 + 1e-12


# the Fock+Gaussian mixture that CI checks from the command line
MIX = MixedState(((0.5, FockSuperposition((0.6, 0.0, 0.8))), (0.5, GaussianState(0.3, -0.2, 1.5))))


@pytest.mark.parametrize("stored", [False, True], ids=["states", "tomograms"])
@pytest.mark.parametrize("n_phases", [16, 64])
@pytest.mark.parametrize("second", [MIX, vacuum()], ids=["mix", "vacuum"])
def test_sweep_report_is_the_first_minimum_row_of_plotdata_sweep(
    workspace, capsys, second, n_phases, stored
):
    save_state(second, workspace / "second.json")
    specs = [str(workspace / f"{name}.json") for name in ("vacuum", "second")]
    if stored:
        csvs = [spec.replace(".json", ".csv") for spec in specs]
        for spec, csv in zip(specs, csvs):
            assert main(["tomogram", "--state", spec, "--phases", str(n_phases), "--out", csv]) == 0
        sources = ["--tomogram1", csvs[0], "--tomogram2", csvs[1]]
    else:
        sources = ["--state1", specs[0], "--state2", specs[1], "--phases", str(n_phases)]
    assert main(["sweep", "trifonov", *sources]) == 0
    report = _last_json(capsys)
    sweep_csv = workspace / "sweep.csv"
    assert main(["plotdata", "sweep", *sources, "--out", str(sweep_csv)]) == 0
    rows = np.loadtxt(sweep_csv, delimiter=",", skiprows=1)
    assert rows.shape == (n_phases, 2)
    first_min = int(np.argmin(rows[:, 1]))  # argmin takes the first of equal minima
    assert (report["phase"], report["lhs"]) == tuple(rows[first_min].tolist())


def test_sweep_over_stored_tomogram_uses_its_phases(workspace, capsys):
    code = main(
        [
            "sweep",
            "trifonov",
            "--tomogram1",
            str(workspace / "classical.csv"),
            "--tomogram2",
            str(workspace / "classical.csv"),
        ]
    )
    assert code == 1  # sub-quantum rows violate at every phase
    payload = _last_json(capsys)
    assert abs(payload["lhs"] - 0.01) < 1e-4


def test_check_purity(workspace, capsys):
    code = main(["check", "purity", "--state", str(workspace / "vacuum.json")])
    assert code == 0
    payload = _last_json(capsys)
    assert payload["classification"] == "pure"
    assert abs(payload["overlap"] - 1.0) < 1e-3
    # a stored 59-point grid: the radial cutoff lands on its Nyquist limit
    stored = str(workspace / "v59.csv")
    vac = str(workspace / "vacuum.json")
    assert main(["tomogram", "--state", vac, "--phases", "16", "--points", "59", "--out", stored]) == 0
    assert main(["check", "purity", "--tomogram", stored]) == 0
    assert _last_json(capsys)["classification"] == "pure"


def test_simulate_estimate_and_empirical_check(workspace, capsys):
    data1 = workspace / "d1.csv"
    data2 = workspace / "d2.csv"
    half_pi = repr(math.pi / 2)
    for state, out, seed in (("s2.json", data1, 5), ("shalf.json", data2, 6)):
        code = main(
            [
                "simulate",
                "--state",
                str(workspace / state),
                "--thetas",
                f"0,{half_pi}",
                "--shots",
                "20000",
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()

    code = main(["estimate", "--data", str(data1), "--theta", "0"])
    assert code == 0
    payload = _last_json(capsys)
    assert abs(payload["variance"] - 1.0) <= 4 * payload["variance_stderr"]

    code = main(
        [
            "check",
            "trifonov",
            "--data1",
            str(data1),
            "--data2",
            str(data2),
            "--theta",
            "0",
        ]
    )
    assert code == 0
    payload = _last_json(capsys)
    assert payload["stderr"] is not None
    assert abs(payload["lhs"] - 0.53125) <= 4 * payload["stderr"]


def test_dataset_commands_accept_phases_outside_zero_to_pi(workspace, capsys):
    data = workspace / "d.csv"
    thetas = f"0.4,{0.4 + math.pi / 2!r}"
    args = ["--state", str(workspace / "s2.json"), "--thetas", thetas, "--shots", "500"]
    assert main(["simulate", *args, "--seed", "3", "--out", str(data)]) == 0
    assert main(["estimate", "--data", str(data), "--theta", "0.4"]) == 0
    base = _last_json(capsys)
    query = 0.4 + math.pi
    assert main(["estimate", "--data", str(data), "--theta", repr(query)]) == 0
    payload = _last_json(capsys)
    assert payload["phase"] == query
    assert payload["mean"] == -base["mean"]
    assert payload["variance"] == base["variance"]
    query = 0.4 - math.pi
    code = main(
        ["check", "trifonov", "--data1", str(data), "--data2", str(data), f"--theta={query!r}"]
    )
    assert code == 0
    assert _last_json(capsys)["phase"] == query
    # schedule phases reduce mod pi as well
    out = workspace / "wrapped.csv"
    args = ["--state", str(workspace / "vacuum.json"), "--thetas", "3.5,-0.2", "--shots", "100"]
    assert main(["simulate", *args, "--seed", "1", "--out", str(out)]) == 0
    thetas = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert np.all((thetas >= 0.0) & (thetas < math.pi))


def test_header_only_data_and_negative_zero_phases(workspace, capsys):
    empty = workspace / "empty.csv"
    empty.write_text("theta,x\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "--data", str(empty), "--theta", "0"]) == 2
    assert caught == []
    assert capsys.readouterr().err == "input error: need at least 30 records at phase 0, got 0\n"
    # a schedule phase of -0.0 is stored, and printed, as 0
    out = workspace / "zeros.csv"
    args = ["--state", str(workspace / "vacuum.json"), "--thetas=-0.0,0.5", "--shots", "40"]
    assert main(["simulate", *args, "--seed", "2", "--out", str(out)]) == 0
    prefixes = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert prefixes == ["0"] * 40 + ["0.5"] * 40


def test_negative_phase_lists_and_schedules_may_follow_their_flag(workspace, capsys):
    # argparse alone reads the space-separated "-0.5,1" as a flag
    vac = ["simulate", "--state", str(workspace / "vacuum.json"), "--seed", "4"]
    runs = {
        "bare-thetas": ["--thetas", "-0.5,1", "--shots", "40"],
        "joined-thetas": ["--thetas=-0.5,1", "--shots", "40"],
        "bare-schedule": ["--schedule", "-0.5:40,1:40"],
        "joined-schedule": ["--schedule=-0.5:40,1:40"],
    }
    for name, flags in runs.items():
        assert main([*vac, *flags, "--out", str(workspace / f"{name}.csv")]) == 0
    texts = {name: (workspace / f"{name}.csv").read_text() for name in runs}
    assert len(set(texts.values())) == 1
    assert texts["bare-schedule"].count("\n") == 81


def test_simulate_is_deterministic(workspace, capsys):
    out1 = workspace / "a.csv"
    out2 = workspace / "b.csv"
    for out in (out1, out2):
        args = [
            "simulate",
            "--state",
            str(workspace / "vacuum.json"),
            "--schedule",
            "0:500,1.0:250",
            "--seed",
            "99",
            "--out",
            str(out),
        ]
        assert main(args) == 0
    assert out1.read_text() == out2.read_text()


def test_plotdata_row_and_sweep(workspace, capsys):
    row_csv = workspace / "row.csv"
    code = main(
        [
            "plotdata",
            "row",
            "--state",
            str(workspace / "vacuum.json"),
            "--theta",
            "0",
            "--out",
            str(row_csv),
        ]
    )
    assert code == 0
    lines = row_csv.read_text().strip().splitlines()
    assert lines[0] == "x,w"
    xs, ws = np.loadtxt(lines[1:], delimiter=",", unpack=True)
    assert np.allclose(ws, np.pi ** -0.5 * np.exp(-xs * xs), atol=1e-8)

    sweep_csv = workspace / "sweep.csv"
    code = main(
        [
            "plotdata",
            "sweep",
            "--state1",
            str(workspace / "s2.json"),
            "--state2",
            str(workspace / "shalf.json"),
            "--phases",
            "8",
            "--out",
            str(sweep_csv),
        ]
    )
    assert code == 0
    lines = sweep_csv.read_text().strip().splitlines()
    assert lines[0] == "theta,lhs"
    thetas, lhs = np.loadtxt(lines[1:], delimiter=",", unpack=True)
    assert thetas.size == 8
    assert abs(lhs[0] - 0.53125) < 1e-6


def test_flag_defaults_are_the_library_constants():
    leaves = {p.prog: p for p in _parsers(build_parser())}

    def flag(prog, dest):
        (action,) = [a for a in leaves[f"optomo {prog}"]._actions if a.dest == dest]
        return action

    assert flag("check heisenberg", "tolerance").default == DEFAULT_TOLERANCE
    assert flag("sweep trifonov", "tolerance").default == DEFAULT_TOLERANCE
    assert flag("check purity", "tol").default == PURITY_TOL
    assert inspect.signature(purity_classify).parameters["tol"].default == PURITY_TOL
    assert inspect.signature(tomogram_grid).parameters["phases"].default == DEFAULT_N_PHASES
    assert flag("tomogram", "phases").default == DEFAULT_N_PHASES
    assert flag("tomogram", "points").default is None
    assert f"default {DEFAULT_N_PHASES}" in flag("tomogram", "phases").help
    assert f"default {DEFAULT_N_X}" in flag("tomogram", "points").help
    assert f"{STDERR_SIGMAS:g} standard errors" in flag("check trifonov", "tolerance").help


def test_plotdata_lines_are_17_digit_renderings(workspace, capsys):
    # 257 points put x = 0 in the middle of the row, so a mirrored row holds -0
    w1, w2, row_csv, sweep_csv = (
        workspace / name for name in ("w1.csv", "w2.csv", "row.csv", "sweep.csv")
    )
    for state, out in (("s2.json", w1), ("shalf.json", w2)):
        assert main(["tomogram", "--state", str(workspace / state), "--phases", "8",
                     "--points", "257", "--out", str(out)]) == 0
    grid1, grid2 = load_tomogram_csv(w1), load_tomogram_csv(w2)
    theta = 1.25 * math.pi
    assert main(["plotdata", "row", "--tomogram", str(w1), "--theta", repr(theta),
                 "--out", str(row_csv)]) == 0
    row, mirrored = grid1.row_at(theta)
    assert mirrored
    lines = row_csv.read_text().splitlines()
    assert lines == ["x,w"] + [
        f"{x:.17g},{w:.17g}" for x, w in zip((-grid1.xs[::-1]).tolist(), row[::-1].tolist())
    ]
    assert lines[1 + 128].startswith("-0,")
    assert main(["plotdata", "sweep", "--tomogram1", str(w1), "--tomogram2", str(w2),
                 "--out", str(sweep_csv)]) == 0
    assert sweep_csv.read_text().splitlines() == ["theta,lhs"] + [
        f"{theta:.17g},{trifonov_lhs(grid1, grid2, theta).lhs:.17g}"
        for theta in grid1.phases.tolist()
    ]


def _one_input_error(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("input error:")


def test_simulate_refuses_an_out_that_would_overwrite_an_input(workspace, capsys):
    state = workspace / "vacuum.json"
    config = workspace / "sim.json"
    config.write_text('{"seed": 1}\n')
    inputs = {path: path.read_bytes() for path in (state, config)}
    files = set(workspace.iterdir())
    sim = ["simulate", "--state", str(state), "--thetas", "0", "--shots", "40"]
    capsys.readouterr()
    for argv in (
        sim + ["--seed", "1", "--out", str(workspace / "vacuum.csv")],  # sidecar is --state
        sim + ["--seed", "1", "--out", str(state)],
        ["--config", str(config)] + sim + ["--out", str(workspace / "sim.csv")],
        sim + ["--seed", "1", "--out", str(workspace / "d.json")],  # sidecar is the dataset
    ):
        assert main(argv) == 2, argv
        assert _one_input_error(capsys), argv
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert set(workspace.iterdir()) == files


def test_impossible_sizes_are_input_errors(workspace, capsys):
    # 10**15 doubles (7 PiB) exceed the address space, so allocating them
    # fails at once; past 2**60 doubles no array can address them, so the
    # count checks refuse before anything is allocated
    vac, out = str(workspace / "vacuum.json"), workspace / "big.csv"
    half = str(2**59)  # two entries of 2**59 shots add up past 2**60
    runs = [["simulate", "--state", vac, "--schedule", f"0:{half},1:{half}", "--seed", "1"]]
    for size in (str(10**15), str(10**19)):
        runs += [
            ["simulate", "--state", vac, "--thetas", "0", "--shots", size, "--seed", "1"],
            ["tomogram", "--state", vac, "--phases", size],
            ["tomogram", "--state", vac, "--points", size],
            ["sweep", "trifonov", "--state1", vac, "--state2", vac, "--phases", size],
        ]
    capsys.readouterr()
    for argv in runs:
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert _one_input_error(capsys), argv
    assert not out.exists()


def test_unknown_flag_exits_with_usage_error(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["check", "heisenberg", "--bogus", "1"])
    assert exc.value.code == 2


def test_missing_source_is_an_input_error(workspace, capsys):
    assert main(["check", "heisenberg"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_nonexistent_file_is_an_input_error(workspace):
    assert main(["check", "heisenberg", "--state", "/does/not/exist.json"]) == 2


def test_config_file_supplies_defaults(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"phases": 8, "out": str(workspace / "cfg.csv")}))
    code = main(
        [
            "--config",
            str(config),
            "tomogram",
            "--state",
            str(workspace / "vacuum.json"),
            "--out",
            str(workspace / "w.csv"),  # explicit flag wins over config
        ]
    )
    assert code == 0
    payload = _last_json(capsys)
    assert payload["n_phases"] == 8
    assert payload["out"].endswith("w.csv")


def test_config_overrides_flag_defaults(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"tolerance": 1.0}))
    args = ["check", "heisenberg", "--state", str(workspace / "vacuum.json")]
    assert main(["--config", str(config)] + args) == 0
    assert _last_json(capsys)["tolerance"] == 1.0
    assert main(["--config", str(config)] + args + ["--tolerance", "0.5"]) == 0
    assert _last_json(capsys)["tolerance"] == 0.5


def test_config_rejects_unknown_keys(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"tolerence": 1.0}))
    code = main(
        ["--config", str(config), "check", "heisenberg", "--state", str(workspace / "vacuum.json")]
    )
    assert code == 2
    assert "'tolerence'" in capsys.readouterr().err


def test_config_rejects_values_the_flag_type_rejects(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"phases": "abc"}))
    code = main(
        [
            "--config",
            str(config),
            "tomogram",
            "--state",
            str(workspace / "vacuum.json"),
            "--out",
            str(workspace / "w.csv"),
        ]
    )
    assert code == 2
    assert "'phases'" in capsys.readouterr().err


def test_config_alone_supplies_a_required_flag(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"out": str(workspace / "c.csv")}))
    args = ["tomogram", "--state", str(workspace / "vacuum.json"), "--phases", "4"]
    assert main(["--config", str(config)] + args) == 0
    assert _last_json(capsys)["out"].endswith("c.csv")
    assert (workspace / "c.csv").exists()
    # still required when neither the config nor the command line gives it
    config.write_text(json.dumps({"phases": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config)] + args)
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_sweep_over_two_tomograms_uses_their_common_phases(workspace, capsys):
    xs = np.linspace(-8.0, 8.0, 513)
    row = gaussian_row(xs, 0.0, 0.6)
    row = row / np.trapezoid(row, xs)
    for name, phases in (
        ("a.csv", uniform_phases(16)),
        ("b.csv", uniform_phases(8)),
        ("c.csv", np.array([0.1, 0.5, 1.0])),
    ):
        grid = TomogramGrid(phases, xs, np.tile(row, (phases.size, 1)))
        save_tomogram_csv(grid, workspace / name)
    a, b, c = (str(workspace / name) for name in ("a.csv", "b.csv", "c.csv"))
    payloads = []
    for first, second in ((a, b), (b, a)):
        for command in (["sweep", "trifonov"], ["plotdata", "sweep"]):
            out = workspace / "sweep.out"
            argv = command + ["--tomogram1", first, "--tomogram2", second, "--out", str(out)]
            assert main(argv) == 0
            if command[0] == "plotdata":
                assert len(out.read_text().strip().splitlines()) == 1 + 8
            else:
                payloads.append(_last_json(capsys))
    assert payloads[0] == payloads[1]
    assert abs(payloads[0]["lhs"] - 0.36) < 1e-6
    assert main(["sweep", "trifonov", "--tomogram1", b, "--tomogram2", c]) == 2
    err = capsys.readouterr().err
    assert "b.csv" in err and "c.csv" in err


def test_sweep_over_two_tomograms_keeps_a_phase_shared_across_the_seam(workspace, capsys):
    # one grid stores 0, the other pi - 1e-10: the same phase on the pi-circle
    grid = tomogram_grid(vacuum(), phases=8)
    phases = np.append(grid.phases[1:], math.pi - 1e-10)
    seam = TomogramGrid(phases, grid.xs, np.roll(grid.values, -1, axis=0))
    a, b = str(workspace / "a.csv"), str(workspace / "b.csv")
    save_tomogram_csv(grid, a)
    save_tomogram_csv(seam, b)
    for first, second in ((a, b), (b, a)):
        pair = ["--tomogram1", first, "--tomogram2", second]
        assert main(["check", "trifonov", *pair, "--theta", "0"]) == 0
        thetas, _, _ = cli._sweep_sources(build_parser().parse_args(["sweep", "trifonov", *pair]))
        assert thetas.size == 8
        assert main(["sweep", "trifonov", *pair]) == 0
        out = workspace / "sweep.csv"
        assert main(["plotdata", "sweep", *pair, "--out", str(out)]) == 0
        assert _last_json(capsys)["points"] == 8
        assert len(out.read_text().strip().splitlines()) == 1 + 8


def test_bad_paths_seeds_and_tolerances_are_input_errors(workspace, capsys):
    vac = str(workspace / "vacuum.json")
    for argv in (
        ["tomogram", "--state", vac, "--out", str(workspace)],  # a directory
        ["check", "purity", "--state", ""],
        ["check", "purity", "--state", vac, "--tol", "nan"],
        ["check", "purity", "--state", vac, "--tol", "inf"],
        ["simulate", "--state", vac, "--schedule", "0:40", "--seed", "-1",
         "--out", str(workspace / "d.csv")],
        ["check", "heisenberg", "--state", vac, "--tolerance", "nan"],
        ["check", "heisenberg", "--state", vac, "--tolerance", "-1"],
        ["check", "trifonov", "--state1", vac, "--state2", vac, "--theta", "0",
         "--tolerance", "inf"],
        ["sweep", "trifonov", "--state1", vac, "--state2", vac, "--phases", "4",
         "--tolerance", "nan"],
        ["sweep", "trifonov", "--state1", vac, "--state2", vac, "--phases", "4",
         "--tolerance", "-1e-20"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "input error" in err and len(err.splitlines()) == 1, argv
    # the dataset check uses 3 standard errors and takes no --tolerance
    d = str(workspace / "d.csv")
    assert main(["simulate", "--state", vac, "--schedule", "0:40,1.5707963267948966:40",
                 "--seed", "1", "--out", d]) == 0
    data = ["check", "trifonov", "--data1", d, "--data2", d, "--theta", "0"]
    assert main(data) == 0
    config = workspace / "tolerance.json"
    config.write_text('{"tolerance": 0.5}')
    for argv, message in (
        (["check", "trifonov", "--state1", vac, "--state2", vac, "--theta", "1e57"], "2**52"),
        (data + ["--tolerance", "nan"], "3 standard errors"),
        (data + ["--tolerance", "0.1"], "3 standard errors"),
        (["--config", str(config)] + data, "3 standard errors"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv

# every leaf subcommand with its flags, read from the parser itself
_LEAVES = [
    (p.prog.split()[1:], [f for a in p._actions for f in a.option_strings if a.dest != "help"])
    for p in _parsers(build_parser())
    if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
]
_FILE_FLAGS = ("--state", "--tomogram", "--data", "--out")
_NUMBERS = [
    "0", "1", "3", "8", "-1", "-1e-20", "0.5", "1e-300", "nan", "inf", "-inf", "abc", "", "0:40,1:40",
]


@pytest.fixture(scope="module")
def junk_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_junk")
    save_state(vacuum(), root / "vacuum.json")
    (root / "junk.json").write_text("{not json")
    (root / "fock.json").write_text('{"type": "fock", "coeffs": [[0, 0], [1, 0]]}')
    (root / "config.json").write_text('{"out": "%s", "seed": 2}' % (root / "cfg.csv"))
    assert main(["tomogram", "--state", str(root / "vacuum.json"), "--phases", "4",
                 "--out", str(root / "w.csv")]) == 0
    assert main(["simulate", "--state", str(root / "vacuum.json"), "--schedule",
                 "0:40,1.5707963267948966:40", "--seed", "1", "--out", str(root / "d.csv")]) == 0
    return root


@given(data=hyp_st.data())
def test_cli_exit_codes_are_0_to_3_and_never_a_traceback(junk_workspace, data):
    # valid files, junk files, missing files, a directory and empty strings
    files = [str(junk_workspace / name) for name in (
        "vacuum.json", "fock.json", "w.csv", "d.csv", "out.csv", "junk.json", "missing.csv",
    )]
    files += ["", str(junk_workspace), str(junk_workspace / "no_dir" / "x.csv")]
    command, flags = data.draw(hyp_st.sampled_from(_LEAVES))
    argv = list(command)
    for flag in flags:
        if data.draw(hyp_st.booleans()):
            pool = files if flag.startswith(_FILE_FLAGS) else _NUMBERS
            argv += [flag, data.draw(hyp_st.sampled_from(pool))]
    if data.draw(hyp_st.booleans()):
        config = data.draw(hyp_st.sampled_from(files + [str(junk_workspace / "config.json")]))
        argv = ["--config", config] + argv
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv


def _csv(path, text):
    path.write_text(text)
    return str(path)


def test_refusal_paths_exit_2_on_one_stderr_line(workspace, capsys):
    vac, w = str(workspace / "vacuum.json"), str(workspace / "classical.csv")
    d = str(workspace / "d.csv")
    assert main(["simulate", "--state", vac, "--schedule", "0:40,1.5707963267948966:40",
                 "--seed", "1", "--out", d]) == 0
    sim = ["simulate", "--state", vac, "--seed", "1", "--out", str(workspace / "new.csv")]
    bad_config = _csv(workspace / "list.json", "[1]\n")
    cases = [
        (["check", "heisenberg", "--state", vac, "--tomogram", w], "give either --state or --tomogram"),
        (sim + ["--thetas", "", "--shots", "40"], "phase list is empty"),
        (sim + ["--thetas", "0,abc", "--shots", "40"], "bad phase list"),
        (sim + ["--schedule", "0"], "bad schedule entry '0'"),
        (sim + ["--schedule", ","], "schedule is empty"),
        (sim + ["--schedule", "0:40", "--thetas", "1"], "not both"),
        (sim + ["--schedule", "0:40", "--shots", "5"], "not both"),
        (sim + ["--schedule", "0:40", "--thetas", "1,2", "--shots", "50"], "not both"),
        (["tomogram", "--state", vac, "--x-min", "-5", "--out", str(workspace / "t.csv")],
         "give both --x-min and --x-max"),
        (["tomogram", "--state", vac, "--x-min", "5", "--x-max", "-5", "--out",
          str(workspace / "t.csv")], "invalid window (5.0, -5.0)"),
        # a width past the float range; windows whose X^2 overflows hold no mass
        *((["tomogram", "--state", vac, f"--x-min=-{half}", "--x-max", half, "--out",
            str(workspace / "t.csv")], message)
          for half, message in (("1e308", "width must be finite"), ("5e307", "integrates to 0"),
                                ("1e300", "integrates to 0"))),
        (sim, "give --schedule or both --thetas and --shots"),
        (["check", "trifonov", "--data1", d, "--theta", "0"], "must be given together"),
        (["check", "trifonov", "--data1", d, "--data2", d, "--state1", vac, "--theta", "0"],
         "cannot be mixed"),
        (["--config", bad_config, "check", "purity", "--state", vac], "config must be a JSON object"),
        (["check", "heisenberg", "--tomogram", _csv(workspace / "ragged.csv",
          "theta,x,w\n0,0,1\n0,1,1\n0,2,1\n1,0,1\n1,1,1\n")], "ragged phase blocks"),
        (["check", "heisenberg", "--tomogram", _csv(workspace / "block.csv",
          "theta,x,w\n0,0,1\n0,1,1\n1,0,1\n2,1,1\n")], "not constant within blocks"),
        (["check", "heisenberg", "--tomogram", _csv(workspace / "xgrid.csv",
          "theta,x,w\n0,0,1\n0,1,1\n1,0,1\n1,2,1\n")], "x grid differs between phase blocks"),
        (["estimate", "--data", _csv(workspace / "three.csv", "theta,x\n0,1,2\n0,2,3\n"),
          "--theta", "0"], "expected two columns theta,x"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning is one more stderr line
            assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert not caught, (argv, [str(w.message) for w in caught])
        assert len(err) == 1 and err[0].startswith("input error:") and message in err[0], (argv, err)
    assert not (workspace / "new.csv").exists() and not (workspace / "new.json").exists()
    assert not (workspace / "t.csv").exists()


_NOT_UTF8 = b"\xff\xfe"
_DEEP = b"[" * 100_000 + b"]" * 100_000  # past the JSON decoder's recursion limit


def _unreadable_input(workspace, case):
    """(argv, the text that names the bad file) for one case of
    ``test_an_unreadable_input_file_exits_2_on_one_line_naming_it``."""
    vac = str(workspace / "vacuum.json")
    kind, content = case.rsplit("-", 1)
    if kind == "nul":  # a NUL byte in a path that --config gives
        key = "state" if content == "input" else "out"
        path = str(workspace / ("a\0b.json" if key == "state" else "a\0b.csv"))
        config = workspace / "config.json"
        config.write_text(json.dumps({key: path}))
        command = ["state", "validate"] if key == "state" else ["tomogram", "--state", vac]
        return ["--config", str(config)] + command, repr(path)
    (workspace / "d.csv").write_text("theta,x\n" + "0,0.5\n" * 40)
    bad = workspace / {"sidecar": "d.json", "dataset": "bin.csv", "tomogram": "bin.csv"}.get(
        kind, "bad.json"
    )
    records = {"dataset": b"theta,x\n0,0.5\n", "tomogram": b"theta,x,w\n0,0,1\n"}.get(kind, b"")
    bad.write_bytes({"not_utf8": _NOT_UTF8, "deep": _DEEP}[content] + records)
    argv = {
        "state": ["state", "validate", "--state", str(bad)],
        "config": ["--config", str(bad), "state", "validate", "--state", vac],
        "sidecar": ["estimate", "--data", str(workspace / "d.csv"), "--theta", "0"],
        "dataset": ["estimate", "--data", str(bad), "--theta", "0"],
        "tomogram": ["check", "heisenberg", "--tomogram", str(bad)],
    }[kind]
    return argv, str(bad)


@pytest.mark.parametrize("case", [
    "state-not_utf8", "config-not_utf8", "sidecar-not_utf8", "dataset-not_utf8",
    "tomogram-not_utf8", "state-deep", "config-deep", "sidecar-deep", "nul-input", "nul-output",
])
def test_an_unreadable_input_file_exits_2_on_one_line_naming_it(workspace, capsys, case):
    argv, named = _unreadable_input(workspace, case)
    files = {path: path.read_bytes() for path in workspace.iterdir()}
    capsys.readouterr()
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and named in err[0], err
    assert captured.out == ""
    assert {path: path.read_bytes() for path in workspace.iterdir()} == files


def test_a_numerical_error_exits_3_on_one_stderr_line(workspace, capsys):
    # 48 points are too coarse for the radial tail of a squeeze-0.8 grid's overlap
    save_state(GaussianState(0.0, 0.0, 0.8), workspace / "s08.json")
    grid = str(workspace / "s08.csv")
    assert main(["tomogram", "--state", str(workspace / "s08.json"), "--phases", "16",
                 "--points", "48", "--out", grid]) == 0
    capsys.readouterr()
    assert main(["check", "purity", "--tomogram", grid]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:"), err


def test_state_checks_print_the_closed_form(workspace, capsys):
    vac, s2, shalf = (str(workspace / f"{name}.json") for name in ("vacuum", "s2", "shalf"))
    S2, SHALF = GaussianState(0.0, 0.0, 2.0), GaussianState(0.0, 0.0, 0.5)
    assert main(["check", "heisenberg", "--state", vac]) == 0
    assert _last_json(capsys)["lhs"] == 0.25
    assert main(["check", "heisenberg", "--state", s2]) == 0
    want = analytic_moments(S2, 0.0).variance * analytic_moments(S2, math.pi / 2).variance
    assert _last_json(capsys)["lhs"] == want
    pair = ["--state1", s2, "--state2", shalf]
    for theta in (0.3, -2.0, 4.0):
        assert main(["check", "trifonov", *pair, "--theta", repr(theta)]) == 0
        assert _last_json(capsys)["lhs"] == operator_trifonov_lhs(S2, SHALF, theta)
    assert main(["sweep", "trifonov", *pair, "--phases", "16"]) == 0
    assert _last_json(capsys) == trifonov_sweep(S2, SHALF, uniform_phases(16)).to_dict()
    out = workspace / "sweep.csv"
    assert main(["plotdata", "sweep", *pair, "--phases", "16", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[:, 1].tolist() == [operator_trifonov_lhs(S2, SHALF, t) for t in rows[:, 0].tolist()]


def test_a_sweep_over_two_stored_grids_is_the_library_sweep(workspace, capsys):
    a, b = str(workspace / "g16.csv"), str(workspace / "g8.csv")
    save_tomogram_csv(tomogram_grid(GaussianState(0.0, 0.0, 2.0), phases=16), a)
    save_tomogram_csv(tomogram_grid(GaussianState(0.0, 0.0, 0.5), phases=8), b)
    want = trifonov_sweep(load_tomogram_csv(a), load_tomogram_csv(b))
    assert main(["sweep", "trifonov", "--tomogram1", a, "--tomogram2", b]) == 0
    assert _last_json(capsys) == want.to_dict()
    assert want.phase == math.pi / 4


# the sources of one run of a command, as (flag, file in the workspace)
_STATE, _TOMOGRAM = [("--state", "vacuum.json")], [("--tomogram", "classical.csv")]
_STATES = [("--state1", "vacuum.json"), ("--state2", "s2.json")]
_TOMOGRAMS = [("--tomogram1", "classical.csv"), ("--tomogram2", "g2.csv")]
_DATASETS = [("--data1", "d1.csv"), ("--data2", "d2.csv")]
# each --out subcommand: its argv without sources or --out, and each set of sources it takes
_OUT_COMMANDS = {
    "tomogram": (["tomogram", "--phases", "4"], [_STATE]),
    "check-heisenberg": (["check", "heisenberg"], [_STATE, _TOMOGRAM]),
    "check-trifonov": (["check", "trifonov", "--theta", "0"], [_STATES, _TOMOGRAMS, _DATASETS]),
    "check-purity": (["check", "purity"], [_STATE, _TOMOGRAM]),
    "sweep-trifonov": (["sweep", "trifonov", "--phases", "4"], [_STATES, _TOMOGRAMS]),
    "simulate": (["simulate", "--thetas", "0", "--shots", "40", "--seed", "1"], [_STATE]),
    "estimate": (["estimate", "--theta", "0"], [[("--data", "d1.csv")]]),
    "plotdata-row": (["plotdata", "row", "--theta", "0"], [_STATE, _TOMOGRAM]),
    "plotdata-sweep": (["plotdata", "sweep", "--phases", "4"], [_STATES, _TOMOGRAMS]),
}


def _clash_cases():
    """(subcommand, sources, input flag, its file, --out file) for every input of
    every --out subcommand, --config included: --out is the input itself, the
    .json sidecar of a --data file, or (simulate) the dataset whose sidecar it is."""
    for name, (_, source_sets) in _OUT_COMMANDS.items():
        inputs = [(sources, flag, file) for sources in source_sets for flag, file in sources]
        for sources, flag, file in inputs + [(source_sets[0], "--config", "c.json")]:
            yield name, sources, flag, file, file
            if flag.startswith("--data"):
                yield name, sources, flag, file, file.replace(".csv", ".json")
            if name == "simulate":
                yield name, sources, flag, file, file.replace(".json", ".csv")


@pytest.mark.parametrize("name, sources, flag, file, out_file", list(_clash_cases()),
                         ids=[f"{case[0]}:{case[2]}:{case[4]}" for case in _clash_cases()])
def test_an_out_that_names_an_input_exits_2_and_writes_nothing(
    workspace, capsys, name, sources, flag, file, out_file
):
    (workspace / "g2.csv").write_bytes((workspace / "classical.csv").read_bytes())
    for seed, data in enumerate(("d1.csv", "d2.csv")):
        main(["simulate", "--state", str(workspace / "vacuum.json"), "--thetas",
              "0,1.5707963267948966", "--shots", "40", "--seed", str(seed), "--out", str(workspace / data)])
    (workspace / "c.json").write_text("{}\n")
    named, out = str(workspace / file), str(workspace / out_file)
    command, _ = _OUT_COMMANDS[name]
    source_args = [arg for source, path in sources for arg in (source, str(workspace / path))]
    files = {path: path.read_bytes() for path in workspace.iterdir()}
    capsys.readouterr()
    assert main(["--config", str(workspace / "c.json"), *command, *source_args, "--out", out]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and out in err[0], err
    # simulate refuses a .json --out as its own sidecar, before any input is looked at
    if name != "simulate" or out != named:
        assert f"--out {out}" in err[0] and f"{flag} {named}" in err[0], err
    assert captured.out == ""
    assert {path: path.read_bytes() for path in workspace.iterdir()} == files


def test_an_out_that_cannot_be_written_leaves_stdout_empty(workspace, capsys):
    missing = str(workspace / "no-such-dir" / "r.json")
    vac = str(workspace / "vacuum.json")
    capsys.readouterr()
    assert main(["check", "heisenberg", "--state", vac, "--out", missing]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("input error:"), captured
    assert not (workspace / "no-such-dir").exists()
