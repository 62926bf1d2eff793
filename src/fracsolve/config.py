"""Run configuration: JSON schema, defaults, and window validation.

A config file is the single source of truth for a run.  Only ``domain``
and ``exponents`` are mandatory; every other field has a default that is
logged when applied, so a report echoing the normalized config is fully
reproducible.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import dataclass

from .driver import OuterOptions
from .frozen import default_tol
from .gagliardo import NODE_CAP
from .grids import Domain, Grid, disk, interval, rectangle
from .optimize import MinimizerOptions
from .reaction import (
    ConvectiveReaction,
    HypothesisReport,
    ProblemExponents,
    SingularReaction,
    check_hypotheses,
)

logger = logging.getLogger("fracsolve.config")


class ConfigError(ValueError):
    """Schema violation: carries the offending field and the reason."""

    def __init__(self, field_name: str, reason: str):
        self.field = field_name
        self.reason = reason
        super().__init__(f"{field_name}: {reason}")


class HypothesisError(ValueError):
    """Solvability-window violation: carries the failed named checks."""

    def __init__(self, failures):
        self.failures = list(failures)
        names = "; ".join(f"{c.name} ({c.detail})" for c in self.failures)
        super().__init__(f"hypothesis violation: {names}")


# field kinds, each named as the reason "expected <kind>, got ..." reads
_KINDS = {
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
}
NUMBER, INTEGER, BOOLEAN, STRING, STRING_OR_NULL = _KINDS
_REQUIRED = object()  # the default of a field the config must give

# domain kind -> (builder, its arguments, which are the section's fields)
_DOMAINS = {
    "interval": (interval, ("a", "b")),
    "rectangle": (rectangle, ("a1", "b1", "a2", "b2")),
    "disk": (disk, ("cx", "cy", "radius")),
}


def _schema(kind: str, dim: int) -> dict:
    """Field -> (kind, default) of the whole config for a domain of this
    kind and dimension; a section maps to the schema of its own fields.
    The order is the order of the echo."""
    tol = default_tol(dim)
    return {
        "domain": {
            "kind": (STRING, _REQUIRED),
            **{key: (NUMBER, _REQUIRED) for key in _DOMAINS[kind][1]},
        },
        "resolution": (INTEGER, 17 if dim == 1 else 11),
        "exponents": {key: (NUMBER, _REQUIRED) for key in ("s", "s1", "s2", "p", "q")},
        "reaction": {
            "gamma": (NUMBER, 0.5),
            "c1": (NUMBER, 0.5),
            "c2": (NUMBER, 0.5),
            "r": (NUMBER, 1.1),
            "family": (STRING, SingularReaction.family),
        },
        "convective": {"c3": (NUMBER, 0.0), "zeta": (NUMBER, 1.2)},
        "minimizer": {"tol": (NUMBER, tol), "max_iter": (INTEGER, MinimizerOptions.max_iter)},
        "outer": {
            "theta": (NUMBER, OuterOptions.theta),
            "tol": (NUMBER, tol),
            "max_outer": (INTEGER, OuterOptions.max_outer),
            "ball_monitor": (BOOLEAN, OuterOptions.ball_monitor),
        },
        "output_dir": (STRING, "out"),
        "cache_dir": (STRING_OR_NULL, None),
        "seed": (INTEGER, 0),
    }


@dataclass
class RunConfig:
    """Fully validated and defaulted parameters of one run."""

    domain_spec: dict
    resolution: int
    exponents: ProblemExponents
    reaction: SingularReaction
    convective: ConvectiveReaction
    minimizer: MinimizerOptions
    outer: OuterOptions
    output_dir: str
    cache_dir: str | None
    seed: int
    hypotheses: HypothesisReport
    normalized: dict

    def build_domain(self) -> Domain:
        """The domain of the validated ``domain`` section."""
        build, keys = _DOMAINS[self.domain_spec["kind"]]
        return build(*[self.domain_spec[k] for k in keys])

    def build_grid(self) -> Grid:
        return Grid(self.build_domain(), self.resolution)

    def as_dict(self) -> dict:
        """Normalized echo of the config, defaults included."""
        return copy.deepcopy(self.normalized)


def _require_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {type(value).__name__}")
    return value


def _typed(path: str, kind: str, value):
    """``value`` checked against ``kind``; a number comes back as a finite
    float."""
    if not _KINDS[kind](value):
        raise ConfigError(path, f"expected {kind}, got {value!r}")
    if kind != NUMBER:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _normalized(given: dict, path: str, schema: dict) -> dict:
    """``given`` checked against ``schema``: unknown fields rejected, each
    field checked against its kind, and missing ones filled from their
    defaults and logged.  A section with a required field is required."""
    extra = sorted(set(given) - set(schema))
    if extra:
        raise ConfigError(path or "config", f"unknown {'field' if path else 'key'}(s) {extra}")
    out = {}
    for key, spec in schema.items():
        name = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            if key not in given and any(d is _REQUIRED for _, d in spec.values()):
                raise ConfigError(name, "required section is missing")
            out[key] = _normalized(_require_mapping(given.get(key, {}), name), name, spec)
        elif key in given:
            out[key] = _typed(name, spec[0], given[key])
        elif spec[1] is _REQUIRED:
            raise ConfigError(name, "required field is missing")
        else:
            logger.info("default applied: %s = %r", name, spec[1])
            out[key] = spec[1]
    return out


def _construct(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as a ConfigError
    on ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(section, str(e)) from e


def load_config(path: str, require_hypotheses: bool = True) -> RunConfig:
    """Read, validate, and normalize a JSON run configuration.

    With require_hypotheses (the default for solving), a config outside
    the solvability window raises HypothesisError naming the violated
    inequality; the report is attached to the returned config either way.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(str(path), f"not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"invalid JSON: {e}") from e
    raw = _require_mapping(raw, "config")
    if "domain" not in raw:
        raise ConfigError("domain", "required section is missing")
    kind = _require_mapping(raw["domain"], "domain").get("kind")
    if not isinstance(kind, str) or kind not in _DOMAINS:
        raise ConfigError("domain.kind", f"expected one of {sorted(_DOMAINS)}, got {kind!r}")
    # the rule for each kind lives in grids.Domain; a box reads only the
    # number of its params, so the field names stand in for the bounds
    dim = Domain(kind, _DOMAINS[kind][1]).dim
    sections = _normalized(raw, "", _schema(kind, dim))

    exponents = _construct("exponents", ProblemExponents, dim=dim, **sections["exponents"])
    reaction = _construct("reaction", SingularReaction, **sections["reaction"])
    convective = _construct("convective", ConvectiveReaction, **sections["convective"])
    cfg = RunConfig(
        domain_spec=sections["domain"],
        resolution=sections["resolution"],
        exponents=exponents,
        reaction=reaction,
        convective=convective,
        minimizer=_construct("minimizer", MinimizerOptions, **sections["minimizer"]),
        outer=_construct("outer", OuterOptions, **sections["outer"]),
        output_dir=sections["output_dir"],
        cache_dir=sections["cache_dir"],
        seed=sections["seed"],
        hypotheses=check_hypotheses(exponents, reaction, convective),
        normalized=sections,
    )

    if cfg.resolution < 3:
        raise ConfigError("resolution", f"must be at least 3, got {cfg.resolution}")
    # an interval keeps resolution - 2 of its nodes, a rectangle
    # (resolution - 2)**2 and a disk about pi/4 of the lattice, so beyond
    # this bound every kind exceeds the cap, and the lattice is not built
    if cfg.resolution**dim > 2 * NODE_CAP:
        raise ConfigError(
            "resolution",
            f"{cfg.resolution} nodes per axis give more than the pair-pass cap of "
            f"{NODE_CAP} interior nodes",
        )
    if cfg.seed < 0:
        raise ConfigError("seed", f"must be at least 0, got {cfg.seed}")
    grid = _construct("domain", cfg.build_grid)
    if grid.n_interior > NODE_CAP:
        raise ConfigError(
            "resolution",
            f"{grid.n_interior} interior nodes exceed the pair-pass cap of {NODE_CAP}",
        )

    if require_hypotheses and not cfg.hypotheses.passed:
        raise HypothesisError(cfg.hypotheses.failures)
    return cfg
