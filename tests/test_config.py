"""Config intake: every malformed input is a ConfigError naming its field.

Each row of MALFORMED makes one fault in the fully specified
``interval_1d.json`` and names the (field, reason) it must raise; the
shipped full configs must echo themselves through ``as_dict``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracsolve.config import ConfigError, load_config
from fracsolve.driver import OuterOptions
from fracsolve.gagliardo import NODE_CAP, OperatorParams
from fracsolve.grids import Grid, disk, interval, rectangle
from fracsolve.optimize import MinimizerOptions
from fracsolve.reaction import ConvectiveReaction, ProblemExponents, SingularReaction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BASE = json.loads((CONFIG_DIR / "interval_1d.json").read_text())
DROP = object()

# (dotted path of the edit, new value or DROP, expected field, expected reason);
# the empty path replaces the whole document
MALFORMED = [
    # unknown keys and fields
    ("domian", {"kind": "interval"}, "config", "unknown key(s) ['domian']"),
    ("domain.c", 1.0, "domain", "unknown field(s) ['c']"),
    ("outer.damping", 0.5, "outer", "unknown field(s) ['damping']"),
    # missing sections and fields
    ("domain", DROP, "domain", "required section is missing"),
    ("exponents", DROP, "exponents", "required section is missing"),
    ("domain.b", DROP, "domain.b", "required field is missing"),
    ("exponents.q", DROP, "exponents.q", "required field is missing"),
    # wrong kinds
    ("", [1, 2], "config", "expected an object, got list"),
    ("reaction", 3, "reaction", "expected an object, got int"),
    ("domain", None, "domain", "expected an object, got NoneType"),
    ("exponents.p", "3", "exponents.p", "expected a number, got '3'"),
    ("domain.a", True, "domain.a", "expected a number, got True"),
    ("minimizer.max_iter", 1.5, "minimizer.max_iter", "expected an integer, got 1.5"),
    ("outer.max_outer", True, "outer.max_outer", "expected an integer, got True"),
    ("resolution", 17.0, "resolution", "expected an integer, got 17.0"),
    ("seed", "0", "seed", "expected an integer, got '0'"),
    ("outer.ball_monitor", 1, "outer.ball_monitor", "expected a boolean, got 1"),
    ("reaction.family", 3, "reaction.family", "expected a string, got 3"),
    ("output_dir", None, "output_dir", "expected a string, got None"),
    ("cache_dir", 3, "cache_dir", "expected a string or null, got 3"),
    # non-finite numbers and a negative seed
    ("exponents.p", math.nan, "exponents.p", "expected a finite number, got nan"),
    ("outer.tol", math.inf, "outer.tol", "expected a finite number, got inf"),
    ("domain.b", -math.inf, "domain.b", "expected a finite number, got -inf"),
    ("exponents.s", 10**400, "exponents.s", f"expected a finite number, got {10**400!r}"),
    ("seed", -1, "seed", "must be at least 0, got -1"),
    # out of range for each dataclass
    (
        "exponents.s2",
        0.7,
        "exponents",
        "orders must satisfy 0 < s2 <= s <= s1 <= 1, got s2=0.7, s=0.55, s1=0.6",
    ),
    (
        "reaction.family",
        "cubic",
        "reaction",
        "unknown family 'cubic'; choose from ('singular', 'bounded')",
    ),
    (
        "convective.c3",
        -0.1,
        "convective",
        "convective coefficient c3 must be nonnegative, got -0.1",
    ),
    ("minimizer.tol", 0.0, "minimizer", "tolerance must be positive, got 0.0"),
    ("outer.theta", 1.5, "outer", "relaxation weight must lie in (0, 1], got 1.5"),
    # domain kind and geometry, resolution
    (
        "domain.kind",
        "square",
        "domain.kind",
        "expected one of ['disk', 'interval', 'rectangle'], got 'square'",
    ),
    (
        "domain.kind",
        ["disk"],
        "domain.kind",
        "expected one of ['disk', 'interval', 'rectangle'], got ['disk']",
    ),
    ("domain.b", -1.0, "domain", "interval needs a < b, got [0.0, -1.0]"),
    ("resolution", 2, "resolution", "must be at least 3, got 2"),
    (
        "resolution",
        4100,
        "resolution",
        "4098 interior nodes exceed the pair-pass cap of 4096",
    ),
]


def edited(path, value):
    if not path:
        return value
    payload = json.loads(json.dumps(BASE))
    *parents, key = path.split(".")
    target = payload
    for name in parents:
        target = target[name]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return payload


def dump(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "path,value,field,reason",
    MALFORMED,
    ids=[f"{i:02d}-{row[0] or 'document'}" for i, row in enumerate(MALFORMED)],
)
def test_malformed_config_names_field_and_reason(tmp_path, path, value, field, reason):
    with pytest.raises(ConfigError) as err:
        load_config(dump(tmp_path, edited(path, value)), require_hypotheses=False)
    assert (err.value.field, err.value.reason) == (field, reason)


@pytest.mark.parametrize("name", ["interval_1d", "interval_1d_pure", "disk_2d"])
def test_full_config_echoes_itself(name):
    path = CONFIG_DIR / f"{name}.json"
    assert load_config(str(path)).as_dict() == json.loads(path.read_text())


DISK = {"kind": "disk", "cx": 0.0, "cy": 0.0, "radius": 1.0}
EXPONENTS_2D = {"s": 0.55, "s1": 0.6, "s2": 0.5, "p": 3.0, "q": 2.5}


def test_huge_resolution_rejected_before_the_grid(tmp_path):
    # the disk lattice at this resolution would need hundreds of TiB
    payload = {"domain": DISK, "exponents": EXPONENTS_2D, "resolution": 10**7}
    with pytest.raises(ConfigError) as err:
        load_config(dump(tmp_path, payload), require_hypotheses=False)
    assert err.value.field == "resolution"


@pytest.mark.parametrize(
    "domain,build,resolutions",
    [
        (
            {"kind": "interval", "a": 0.0, "b": 1.0},
            lambda: interval(0.0, 1.0),
            [*range(4094, 4103), *range(8188, 8197)],
        ),
        (
            {"kind": "rectangle", "a1": 0.0, "b1": 2.0, "a2": -1.0, "b2": 0.5},
            lambda: rectangle(0.0, 2.0, -1.0, 0.5),
            range(62, 96),
        ),
        (DISK, lambda: disk(0.0, 0.0, 1.0), range(70, 96)),
    ],
    ids=["interval", "rectangle", "disk"],
)
def test_resolution_cap_rejects_only_grids_above_it(tmp_path, domain, build, resolutions):
    # each walk crosses both the exact interior-node count and the bound
    # resolution**dim > 2 * NODE_CAP that rejects before any grid is built
    exponents = dict(EXPONENTS_2D, p=2.5, q=2.2) if domain["kind"] == "interval" else EXPONENTS_2D
    for resolution in resolutions:
        payload = {"domain": domain, "exponents": exponents, "resolution": resolution}
        n_interior = Grid(build(), resolution).n_interior
        try:
            load_config(dump(tmp_path, payload), require_hypotheses=False)
        except ConfigError as err:
            assert err.field == "resolution"
            assert n_interior > NODE_CAP, resolution
        else:
            assert n_interior <= NODE_CAP, resolution


X = object()  # the parameter that takes the value that is not finite
EXPONENTS_1D = {"s": 0.55, "s1": 0.6, "s2": 0.5, "p": 2.5, "q": 2.2, "dim": 1}
REACTION = {"gamma": 0.5, "c1": 0.5, "c2": 0.5, "r": 1.1}

# (parameter type or domain builder, its arguments with X at the parameter
# under test, the start of the message of its range rule)
NONFINITE = [
    (MinimizerOptions, {"tol": X}, "tolerance must be positive"),
    (MinimizerOptions, {"max_iter": X}, "max_iter must be an integer"),
    (OuterOptions, {"tol": X}, "tolerance must be positive"),
    (OuterOptions, {"max_outer": X}, "max_outer must be an integer"),
    (OperatorParams, {"s": 0.5, "p": X}, "exponent p must exceed 1"),
    (ProblemExponents, {**EXPONENTS_1D, "p": X}, "exponents must exceed 1"),
    (ProblemExponents, {**EXPONENTS_1D, "q": X}, "exponents must exceed 1"),
    (SingularReaction, {**REACTION, "gamma": X}, "singular exponent gamma must be positive"),
    (SingularReaction, {**REACTION, "c1": X}, "coefficient c1 must be positive"),
    (SingularReaction, {**REACTION, "c2": X}, "coefficient c2 must be nonnegative"),
    (SingularReaction, {**REACTION, "r": X}, "growth exponent r must be positive"),
    (ConvectiveReaction, {"c3": X, "zeta": 1.2}, "convective coefficient c3 must be nonnegative"),
    (ConvectiveReaction, {"c3": 0.2, "zeta": X}, "growth exponent zeta must be positive"),
    (disk, {"cx": X, "cy": 0.0, "radius": 1.0}, "disk needs a finite centre"),
    (disk, {"cx": 0.0, "cy": X, "radius": 1.0}, "disk needs a finite centre"),
    (disk, {"cx": 0.0, "cy": 0.0, "radius": X}, "disk needs a positive radius"),
    (interval, {"a": X, "b": 1.0}, "interval needs a < b"),
    (interval, {"a": 0.0, "b": X}, "interval needs a < b"),
    (rectangle, {"a1": 0.0, "b1": X, "a2": 0.0, "b2": 1.0}, "rectangle needs positive side lengths"),
    (rectangle, {"a1": 0.0, "b1": 1.0, "a2": X, "b2": 1.0}, "rectangle needs positive side lengths"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build,kwargs,reason",
    NONFINITE,
    ids=[f"{b.__name__}.{next(k for k, v in kw.items() if v is X)}" for b, kw, _ in NONFINITE],
)
def test_parameters_that_are_not_finite_rejected(build, kwargs, reason, value):
    # a NaN fails every comparison, so a rule written as "reject if x <= 0"
    # lets it through, and an infinite tolerance or bound passes as well
    args = {k: value if v is X else v for k, v in kwargs.items()}
    with pytest.raises(ValueError, match=reason):
        build(**args)


@pytest.mark.parametrize(
    "value",
    [2.5, 2.0, "3", True, False],
    ids=["fractional", "integral-float", "str", "True", "False"],
)
@pytest.mark.parametrize(
    "build,field", [(MinimizerOptions, "max_iter"), (OuterOptions, "max_outer")]
)
def test_budgets_that_are_not_integers_rejected(build, field, value):
    # range() takes integers only, so such a budget used to fail at solve
    # time with a TypeError
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        build(**{field: value})


@pytest.mark.parametrize("value", [0, -3, np.int64(0)])
@pytest.mark.parametrize(
    "build,field", [(MinimizerOptions, "max_iter"), (OuterOptions, "max_outer")]
)
def test_budgets_below_one_keep_their_message(build, field, value):
    with pytest.raises(ValueError, match="iteration budget must be positive"):
        build(**{field: value})
    assert getattr(build(**{field: np.int64(2)}), field) == 2
