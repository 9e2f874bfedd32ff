import argparse
import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp_st

from optomo import (
    GaussianState,
    TomogramGrid,
    gaussian_row,
    save_state,
    save_tomogram_csv,
    tomogram_grid,
    uniform_phases,
    vacuum,
)
from optomo import cli
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
        assert "input error" in capsys.readouterr().err
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
