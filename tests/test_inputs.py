"""Every real number and every array of reals a caller passes in is checked
where it enters: a string, a bool, None, a NaN, an infinity or a 0-d array is
an InputError whose message names the argument, and numpy's float and
integer scalars give bitwise the results of the Python float they hold."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from optomo import (
    FockSuperposition,
    HomodyneDataset,
    InequalityReport,
    InputError,
    MixedState,
    TomogramGrid,
    analytic_moments,
    empirical_trifonov,
    estimate_moments,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    gaussian_row,
    heisenberg_lhs,
    load_dataset_csv,
    load_state,
    load_tomogram_csv,
    moments_from_state,
    operator_trifonov_lhs,
    optical_tomogram,
    purity_classify,
    purity_overlap,
    row_mean,
    row_variance,
    sample,
    save_dataset_csv,
    state_from_dict,
    state_to_dict,
    symplectic_tomogram,
    tomogram_characteristic,
    tomogram_grid,
    tomographic_mean,
    tomographic_moments,
    tomographic_variance,
    trifonov_lhs,
    trifonov_sweep,
    vacuum,
)
from optomo.cli import main
from optomo.tomography import wrap_phase

HALF_PI = math.pi / 2.0
# every phase a case reads, with its partner pi/2 on: 0, 1/2 and 1 hold
# exactly in a float32 and (0, 1) in an int64
PHASES = sorted({0.0, 0.5, 1.0, HALF_PI, 0.5 + HALF_PI, 1.0 + HALF_PI})
GRID = tomogram_grid(vacuum(), PHASES)
DATA = sample(vacuum(), [(phase, 40) for phase in PHASES], seed=3)
XS = np.linspace(-6.0, 6.0, 241)
ROW = gaussian_row(XS, 0.0, 0.5)
VACUUM = {"type": "gaussian", "mean_q": 0.0, "mean_p": 0.0, "squeeze": 1.0}
REPORT = dict(kind="trifonov", phase=0.5, lhs=0.2, bound=0.25, margin=-0.05, satisfied=False)

# (start of the refusal's message, the call that takes the value, a value it accepts)
SCALAR_CASES = [
    ("phase must", lambda v: wrap_phase(v), 1.0),
    ("phase must", lambda v: GRID.lookup(v), 1.0),
    ("phase must", lambda v: tomographic_mean(GRID, v), 1.0),
    ("phase must", lambda v: tomographic_variance(GRID, v), 1.0),
    ("phase must", lambda v: tomographic_moments(GRID, v), 1.0),
    ("phase must", lambda v: analytic_moments(vacuum(), v), 1.0),
    ("phase must", lambda v: moments_from_state(vacuum(), v), 1.0),
    ("phase must", lambda v: optical_tomogram(vacuum(), v, XS), 1.0),
    ("phase must", lambda v: optical_tomogram(vacuum(), v, XS, branch="momentum"), None),
    ("phase must", lambda v: trifonov_lhs(GRID, GRID, v), 1.0),
    ("phase must", lambda v: operator_trifonov_lhs(vacuum(), vacuum(), v), 1.0),
    ("phase must", lambda v: sample(vacuum(), [(v, 40)], 1), 1.0),
    ("phase must", lambda v: DATA.values_at(v), 1.0),
    ("phase must", lambda v: estimate_moments(DATA, v), 1.0),
    ("phase must", lambda v: empirical_trifonov(DATA, DATA, v), 1.0),
    ("tolerance must", lambda v: heisenberg_lhs(GRID, tolerance=v), 1.0),
    ("tolerance must", lambda v: trifonov_lhs(GRID, GRID, 0.5, tolerance=v), 1.0),
    ("tolerance must", lambda v: trifonov_sweep(GRID, GRID, tolerance=v), 1.0),
    ("tolerance must", lambda v: purity_classify(vacuum(), tol=v), 1.0),
    ("window must", lambda v: tomogram_grid(vacuum(), 4, window=(v, 6.0)), -6.0),
    ("window must", lambda v: tomogram_grid(vacuum(), 4, window=(-6.0, v)), 6.0),
    ("x must", lambda v: symplectic_tomogram(GRID, v, 1.0, 0.0), 1.0),
    (
        "gaussian state: field 'mean_q' must",
        lambda v: state_from_dict({**VACUUM, "mean_q": v}),
        1.0,
    ),
    (
        "mixture component: field 'weight' must",
        lambda v: state_from_dict(
            {"type": "mixed", "components": [{"weight": v, "state": VACUUM}]}
        ),
        1.0,
    ),
    (
        "fock state: coefficient part must",
        lambda v: state_from_dict({"type": "fock", "coeffs": [[v, 0.0]]}),
        1.0,
    ),
    (
        "report field 'phase' must",
        lambda v: InequalityReport.from_dict({**REPORT, "phase": v}),
        1.0,
    ),
]
HUGE = 10**400  # an int past the float range
BAD_SCALARS = ["0.5", True, np.True_, None, math.nan, math.inf, -math.inf, np.array(0.5), HUGE]

ARRAY_CASES = [
    ("x points must", lambda v: optical_tomogram(vacuum(), 0.5, v)),
    ("r must", lambda v: tomogram_characteristic(vacuum(), 0.5, v)),
    ("phase must", lambda v: tomogram_characteristic(vacuum(), v, 1.0)),
    ("phases must", lambda v: tomogram_grid(vacuum(), v)),
    ("phases must", lambda v: trifonov_sweep(GRID, GRID, v)),
    ("x grid must", lambda v: row_mean(v, ROW)),
    ("row must", lambda v: row_mean(XS, v)),
    ("x grid must", lambda v: row_variance(v, ROW)),
    ("row must", lambda v: row_variance(XS, v)),
    ("y must", lambda v: eval_position_wavefunction(vacuum(), v)),
    ("p must", lambda v: eval_momentum_wavefunction(vacuum(), v)),
    ("xs must", lambda v: gaussian_row(v, 0, 1)),
]
BAD_ARRAYS = [
    ["0.5", "1.0"],
    [True, False],
    [0.5, True],
    (0.0, np.True_),
    [[0.5], [np.False_]],
    np.array([0.5, 1.0], dtype=object),
    [0.5, math.nan],
    [0.5, -math.inf],
]


def _case_id(case):
    return case[0].removesuffix(" must")


@pytest.mark.parametrize("value", BAD_SCALARS, ids=lambda v: "10**400" if v is HUGE else repr(v))
@pytest.mark.parametrize("case", SCALAR_CASES, ids=_case_id)
def test_every_real_argument_refuses_what_is_not_a_finite_real(case, value):
    message, call, _ = case
    with pytest.raises(InputError) as caught:
        call(value)
    assert str(caught.value).startswith(message), str(caught.value)


@pytest.mark.parametrize("value", BAD_ARRAYS, ids=repr)
@pytest.mark.parametrize("case", ARRAY_CASES, ids=_case_id)
def test_every_real_array_refuses_strings_bools_objects_and_non_finite_entries(case, value):
    message, call = case
    with pytest.raises(InputError) as caught:
        call(value)
    assert str(caught.value).startswith(message), str(caught.value)


def _bits(result):
    """A result as text that two bitwise-equal results share: float reprs
    round-trip, and arrays and datasets are compared by their bytes."""
    if isinstance(result, np.ndarray):
        return result.dtype.str + result.tobytes().hex()
    if isinstance(result, TomogramGrid):
        return [_bits(a) for a in (result.phases, result.xs, result.values)]
    if hasattr(result, "xs") and hasattr(result, "thetas"):
        return [_bits(result.xs), _bits(result.thetas), result.seed]
    if isinstance(result, tuple) and not hasattr(result, "__dataclass_fields__"):
        return [_bits(item) for item in result]
    return repr(result)


# every case with a value it accepts (the transform branch is slow) in each
# numpy type that holds that value exactly
NUMPY_CASES = [
    pytest.param(case, to_numpy, id=f"{_case_id(case)}-{to_numpy.__name__}")
    for case in SCALAR_CASES
    for to_numpy in (np.float64, np.float32, np.int64)
    if case[2] is not None and float(to_numpy(case[2])) == case[2]
]


@pytest.mark.parametrize("case, to_numpy", NUMPY_CASES)
def test_numpy_scalars_give_the_results_of_their_python_float(case, to_numpy):
    _, call, good = case
    assert _bits(call(to_numpy(good))) == _bits(call(good))


def test_the_inputs_that_used_to_answer_or_raise_a_bare_type_error():
    grid = tomogram_grid(vacuum(), 4)
    calls = [
        lambda: analytic_moments(vacuum(), "0.5"),
        lambda: tomographic_moments(grid, "0"),
        lambda: sample(vacuum(), [(True, 40)], 1),
        lambda: purity_classify(vacuum(), tol=True),
        lambda: heisenberg_lhs(grid, tolerance="1"),
        lambda: purity_classify(vacuum(), tol="0.1"),
        lambda: tomogram_grid(vacuum(), 4, window=("-5", "5")),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_a_report_must_hold_numbers_and_a_json_boolean():
    with pytest.raises(InputError, match="report field 'phase' must be a finite real number"):
        InequalityReport.from_dict({**REPORT, "phase": "0.5", "satisfied": "false"})
    for satisfied in ("false", 0, None):
        with pytest.raises(InputError, match="report field 'satisfied' must be a boolean"):
            InequalityReport.from_dict({**REPORT, "satisfied": satisfied})
    with pytest.raises(InputError, match="report field 'stderr' must be a finite real number"):
        InequalityReport.from_dict({**REPORT, "stderr": "0.1"})
    report = InequalityReport.from_dict({**REPORT, "stderr": None})
    assert report.satisfied is False and report.stderr is None
    assert InequalityReport.from_dict(json.loads(report.to_json())) == report


def _dataset_with_sidecar(tmp_path, seed):
    path = tmp_path / "d.csv"
    save_dataset_csv(sample(vacuum(), [(0.0, 40)], 5), path)
    sidecar = tmp_path / "d.json"
    meta = json.loads(sidecar.read_text())
    if seed is None:
        del meta["seed"]
    else:
        meta["seed"] = seed
    sidecar.write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("seed", [3.7, "3", True, [3], None, 5])
def test_a_sidecar_seed_is_an_integer_or_refused(tmp_path, seed):
    path = _dataset_with_sidecar(tmp_path, seed)
    if seed is None or type(seed) is int:
        got = load_dataset_csv(path).seed
        assert type(got) is int and got == (-1 if seed is None else seed)
        return
    with pytest.raises(InputError, match="^invalid metadata sidecar .*seed must be an integer"):
        load_dataset_csv(path)


def test_a_sidecar_that_is_not_an_object_is_refused(tmp_path):
    path = _dataset_with_sidecar(tmp_path, 5)
    (tmp_path / "d.json").write_text("[5]\n")
    with pytest.raises(InputError, match="^invalid metadata sidecar"):
        load_dataset_csv(path)


def test_the_cli_exits_2_on_a_fractional_sidecar_seed(tmp_path, capsys):
    path = _dataset_with_sidecar(tmp_path, 3.7)
    capsys.readouterr()
    assert main(["estimate", "--data", str(path), "--theta", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: invalid metadata sidecar")


# (what takes the array, the call, its whole refusal message); each container
# refuses the array on its own, the other arguments being valid
CONTAINER_CASES = [
    (
        "grid phases",
        lambda v: TomogramGrid(v, XS, [ROW, ROW]),
        "phases must be finite and lie in [0, pi)",
    ),
    ("grid xs", lambda v: TomogramGrid([0.0], v, [ROW]), "x grid must be uniform and increasing"),
    ("grid values", lambda v: TomogramGrid([0.0, 0.5], XS, v), "tomogram values must be finite"),
    (
        "dataset thetas",
        lambda v: HomodyneDataset(v, [0.0, 1.0], 0, "x"),
        "phases must be finite and lie in [0, pi)",
    ),
    ("dataset xs", lambda v: HomodyneDataset([0.0, 0.5], v, 0, "x"), "quadrature values must be finite"),
    (
        "fock coeffs",
        lambda v: FockSuperposition(v),
        "coeffs must be a sequence of finite ints, floats or complex numbers",
    ),
]
# strings, bools (Python's and numpy's, alone and among numbers) and objects
BAD_TYPES = [
    ["0.5", "1.0"],
    [False, True],
    [0.5, True],
    (0.0, np.True_),
    [[0.5], [np.False_]],
    np.array([0.5, 1.0], dtype=object),
]


@pytest.mark.parametrize("value", BAD_TYPES, ids=repr)
@pytest.mark.parametrize("case", CONTAINER_CASES, ids=lambda case: case[0])
def test_grids_datasets_and_fock_states_refuse_strings_bools_and_objects(case, value):
    _, call, message = case
    with pytest.raises(InputError) as caught:
        call(value)
    assert str(caught.value) == message


def test_containers_take_integer_and_numpy_arrays_as_their_float_values():
    grid = TomogramGrid([0.0, 0.5], XS, [ROW, ROW])
    assert _bits(TomogramGrid(np.array([0, 0.5], dtype=np.float32), XS, [ROW, ROW])) == _bits(grid)
    data = HomodyneDataset([0.0, 0.5], [1.0, -2.0], 0, "x")
    assert _bits(HomodyneDataset(np.array([0.0, 0.5]), np.array([1, -2]), 0, "x")) == _bits(data)
    want = FockSuperposition((0.6, 0.8j)).coeffs
    for coeffs in ([0.6, 0.8j], np.array([0.6, 0.8j]), (np.float64(0.6), np.complex128(0.8j))):
        assert FockSuperposition(coeffs).coeffs == want
    assert FockSuperposition((3, 4)).coeffs == (0.6, 0.8)


@pytest.mark.parametrize(
    "coeffs",
    [5, np.array(1.0), (), ([1.0, 0.5], 1.0), (1.0, None), (HUGE,), (1.0, complex(0.0, math.inf))],
    ids=["int", "0-d array", "empty", "ragged", "None", "10**400", "infinite imaginary part"],
)
def test_fock_coefficients_that_are_not_a_sequence_of_finite_numbers_are_refused(coeffs):
    with pytest.raises(InputError, match="^coeffs must"):
        FockSuperposition(coeffs)


@pytest.mark.parametrize(
    "provenance, message",
    [
        ((3.7, "x", "g"), "seed must be an integer, got 3.7"),
        (("3", "x", "g"), "seed must be an integer, got '3'"),
        ((True, "x", "g"), "seed must be an integer, got True"),
        ((None, "x", "g"), "seed must be an integer, got None"),
        ((3, 5, "g"), "state_label must be a string, got 5"),
        ((3, None, "g"), "state_label must be a string, got None"),
        ((3, "x", [1]), "generator must be a string, got [1]"),
    ],
)
def test_a_dataset_refuses_a_seed_that_is_not_an_integer_and_texts_that_are_not_strings(
    provenance, message
):
    with pytest.raises(InputError) as caught:
        HomodyneDataset([0.0] * 40, [0.5] * 40, *provenance)
    assert str(caught.value) == message


@pytest.mark.parametrize("seed", [np.int64(-1), np.uint8(7)], ids=repr)
def test_a_dataset_in_memory_saves_a_sidecar_its_loader_reads_back(tmp_path, seed):
    data = HomodyneDataset([0.0] * 40, np.linspace(-1.0, 1.0, 40), seed, np.str_("label"), "gen")
    save_dataset_csv(data, tmp_path / "d.csv")
    loaded = load_dataset_csv(tmp_path / "d.csv")
    assert (loaded.seed, loaded.state_label, loaded.generator) == (int(seed), "label", "gen")
    assert type(loaded.seed) is type(data.seed) is int


@pytest.mark.parametrize("field, value", [("state_label", 5), ("generator", [1]), ("state_label", None)])
def test_a_sidecar_label_or_generator_that_is_not_a_string_is_refused(tmp_path, field, value):
    path = _dataset_with_sidecar(tmp_path, 5)
    meta = json.loads((tmp_path / "d.json").read_text())
    meta[field] = value
    (tmp_path / "d.json").write_text(json.dumps(meta))
    with pytest.raises(InputError, match=f"^invalid metadata sidecar .*{field} must be a string"):
        load_dataset_csv(path)


# a ragged nesting, which numpy refuses with a ValueError of its own
RAGGED = [[0.1, 0.2], 0.3]


@pytest.mark.parametrize("case", ARRAY_CASES, ids=_case_id)
def test_every_real_array_refuses_a_ragged_nesting(case):
    message, call = case
    with pytest.raises(InputError) as caught:
        call(RAGGED)
    assert str(caught.value).startswith(message), str(caught.value)


@pytest.mark.parametrize("case", CONTAINER_CASES, ids=lambda case: case[0])
def test_grids_datasets_and_fock_states_refuse_a_ragged_nesting(case):
    _, call, message = case
    with pytest.raises(InputError) as caught:
        call(RAGGED)
    assert str(caught.value) == message


# calls that take a dataset or a grid, with the type they take
WRONG_OBJECT_CASES = [
    ("estimate_moments", HomodyneDataset, lambda v: estimate_moments(v, 0.5)),
    ("empirical_trifonov first", HomodyneDataset, lambda v: empirical_trifonov(v, DATA, 0.5)),
    ("empirical_trifonov second", HomodyneDataset, lambda v: empirical_trifonov(DATA, v, 0.5)),
    ("tomographic_mean", TomogramGrid, lambda v: tomographic_mean(v, 0.5)),
    ("tomographic_variance", TomogramGrid, lambda v: tomographic_variance(v, 0.5)),
    ("tomographic_moments", TomogramGrid, lambda v: tomographic_moments(v, 0.5)),
]


WRONG_OBJECTS = [
    pytest.param(case, value, id=f"{case[0]}-{type(value).__name__}")
    for case in WRONG_OBJECT_CASES
    for value in (vacuum(), "x", None, GRID, DATA)
    if not isinstance(value, case[1])
]


@pytest.mark.parametrize("case, value", WRONG_OBJECTS)
def test_dataset_and_grid_functions_refuse_other_objects_by_type(case, value):
    _, kind, call = case
    with pytest.raises(InputError) as caught:
        call(value)
    assert str(caught.value) == f"expected a {kind.__name__}, got {type(value).__name__}"


@pytest.mark.parametrize("value", [vacuum(), GRID, None], ids=lambda v: type(v).__name__)
def test_save_dataset_csv_refuses_other_objects_and_writes_nothing(tmp_path, value):
    with pytest.raises(InputError) as caught:
        save_dataset_csv(value, tmp_path / "d.csv")
    assert str(caught.value) == f"expected a HomodyneDataset, got {type(value).__name__}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("load", [load_state, load_tomogram_csv, load_dataset_csv])
def test_a_path_holding_a_nul_byte_is_an_input_error_naming_it(load):
    # open raises ValueError, not OSError, for such a path
    with pytest.raises(InputError, match="^cannot read .*a\x00b: embedded null byte"):
        load("a\0b")


def _cli_input_error(argv):
    """Run main(argv) and raise again the InputError it reported: main
    prints it on one stderr line and exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    lines = err.getvalue().splitlines()
    assert status == 2 and len(lines) == 1 and lines[0].startswith("input error: ")
    raise InputError(lines[0].removeprefix("input error: "))


MIXTURE = MixedState(((0.5, vacuum()), (0.5, FockSuperposition((0.0, 1.0)))))
REFUSALS = [
    ("out path with a NUL",
     lambda: _cli_input_error(["tomogram", "--state", "s.json", "--out", "a\0b"]),
     "cannot resolve a path of tomogram: embedded null byte"),
    ("dataset of mismatched arrays", lambda: HomodyneDataset([0.0, 0.5], [0.1], 0, "x"),
     "thetas and xs must be matching 1-D arrays"),
    ("schedule entry not a pair", lambda: sample(vacuum(), [0.5], seed=1),
     "schedule entries must be (phase, count) pairs"),
    ("empty report", lambda: InequalityReport.from_dict({}), "report is missing field 'kind'"),
    ("mismatched loose row", lambda: row_mean(XS, ROW[:-1]),
     "row and x grid must be matching 1-D arrays (>= 3 points)"),
    ("2-point loose row", lambda: row_mean([0.0, 1.0], [1.0, 1.0]),
     "row and x grid must be matching 1-D arrays (>= 3 points)"),
    ("overlap on non-uniform phases", lambda: purity_overlap(GRID, vacuum()),
     "overlap integration needs phases uniform on [0, pi) starting at 0"),
    ("mixture component not a pair", lambda: MixedState((vacuum(),)),
     "components must be (weight, state) pairs"),
    ("mixture of nothing", lambda: MixedState(()), "mixture needs at least one component"),
    ("position wavefunction of a mixture", lambda: eval_position_wavefunction(MIXTURE, 0.0),
     "expected a pure state, got MixedState"),
    ("momentum wavefunction of a mixture", lambda: eval_momentum_wavefunction(MIXTURE, 0.0),
     "expected a pure state, got MixedState"),
    ("spec of a non-state", lambda: state_to_dict(42), "expected a state, got int"),
    ("spec not an object", lambda: state_from_dict([]), "state spec must be a JSON object, got list"),
    ("fock coeffs not a list", lambda: state_from_dict({"type": "fock", "coeffs": "1"}),
     "fock state: coeffs must be a list of [re, im] pairs"),
    ("mixed components not a list", lambda: state_from_dict({"type": "mixed", "components": {}}),
     "mixed state: components must be a non-empty list"),
    ("mixed component not an object", lambda: state_from_dict({"type": "mixed", "components": [1]}),
     "mixed state: each component must be an object"),
    ("unknown branch", lambda: optical_tomogram(vacuum(), 0.3, XS, branch="x"),
     "branch must be 'position' or 'momentum', got 'x'"),
    ("2-D phases", lambda: tomogram_grid(vacuum(), [[0.0, 0.5]]),
     "phases must be an integer count or a 1-D list of finite real numbers"),
    ("grid of a non-state", lambda: tomogram_grid(42), "expected a state, got int"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_each_refusal_is_an_input_error_with_its_message(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("part", [1e154, 1e200])
def test_fock_coefficients_whose_norm_overflows_are_refused(tmp_path, part):
    # the squared norm is inf at 1e154 and raises OverflowError at 1e200
    spec = {"type": "fock", "coeffs": [[part, 0.0], [part, 0.0]]}
    message = "coeffs have (numerically) infinite norm"
    with pytest.raises(InputError) as info:
        state_from_dict(spec)
    assert str(info.value) == message
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    for argv in (["state", "validate"], ["check", "heisenberg"]):
        with pytest.raises(InputError) as info:
            _cli_input_error([*argv, "--state", str(path)])
        assert str(info.value) == message


def test_fock_coefficients_with_a_large_finite_norm_are_divided_by_it():
    big = FockSuperposition((1e153, 1e153j))
    norm = math.sqrt(2.0 * 1e153 ** 2)
    assert big.coeffs == (1e153 / norm + 0j, 1e153j / norm)
