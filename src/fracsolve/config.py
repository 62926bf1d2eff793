"""Run configuration: JSON schema, defaults, and window validation.

A config file is the single source of truth for a run.  Only ``domain``
and ``exponents`` are mandatory; every other field has a default that is
logged when applied, so a report echoing the normalized config is fully
reproducible.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .driver import OuterOptions
from .frozen import default_tol
from .gagliardo import NODE_CAP
from .grids import Grid, build_grid, disk, interval, rectangle
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


_DOMAIN_FIELDS = {
    "interval": ("a", "b"),
    "rectangle": ("a1", "b1", "a2", "b2"),
    "disk": ("cx", "cy", "radius"),
}


def _build_domain(spec: dict):
    """The domain of a validated ``domain`` section."""
    build = {"interval": interval, "rectangle": rectangle, "disk": disk}[spec["kind"]]
    return build(*[spec[k] for k in _DOMAIN_FIELDS[spec["kind"]]])


_TOP_KEYS = {
    "domain",
    "resolution",
    "exponents",
    "reaction",
    "convective",
    "minimizer",
    "outer",
    "output_dir",
    "cache_dir",
    "seed",
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
    defaulted: list = field(default_factory=list)

    def build_domain(self):
        return _build_domain(self.domain_spec)

    def build_grid(self) -> Grid:
        return build_grid(self.build_domain(), self.resolution)

    def as_dict(self) -> dict:
        """Normalized echo of the config, defaults included."""
        return {
            "domain": dict(self.domain_spec),
            "resolution": self.resolution,
            "exponents": {
                "s": self.exponents.s,
                "s1": self.exponents.s1,
                "s2": self.exponents.s2,
                "p": self.exponents.p,
                "q": self.exponents.q,
            },
            "reaction": {
                "gamma": self.reaction.gamma,
                "c1": self.reaction.c1,
                "c2": self.reaction.c2,
                "r": self.reaction.r,
                "family": self.reaction.family,
            },
            "convective": {"c3": self.convective.c3, "zeta": self.convective.zeta},
            "minimizer": {
                "tol": self.minimizer.tol,
                "max_iter": self.minimizer.max_iter,
            },
            "outer": {
                "theta": self.outer.theta,
                "tol": self.outer.tol,
                "max_outer": self.outer.max_outer,
                "ball_monitor": self.outer.ball_monitor,
            },
            "output_dir": self.output_dir,
            "cache_dir": self.cache_dir,
            "seed": self.seed,
        }


def _require_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {type(value).__name__}")
    return value


def _number(section, key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _integer(section, key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _section(raw, name, allowed, defaults, defaulted):
    """Extract a sub-object, fill missing fields from defaults, reject
    unknown keys; record every applied default."""
    given = _require_mapping(raw.get(name, {}), name)
    extra = set(given) - set(allowed)
    if extra:
        raise ConfigError(name, f"unknown field(s) {sorted(extra)}")
    out = {}
    for key in allowed:
        if key in given:
            out[key] = given[key]
        elif key in defaults:
            out[key] = defaults[key]
            defaulted.append(f"{name}.{key}")
            logger.info("default applied: %s.%s = %r", name, key, defaults[key])
        else:
            raise ConfigError(f"{name}.{key}", "required field is missing")
    return out


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
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"invalid JSON: {e}") from e
    raw = _require_mapping(raw, "config")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise ConfigError("config", f"unknown key(s) {sorted(extra)}")
    for required in ("domain", "exponents"):
        if required not in raw:
            raise ConfigError(required, "required section is missing")

    defaulted: list = []

    domain_raw = _require_mapping(raw["domain"], "domain")
    kind = domain_raw.get("kind")
    if kind not in _DOMAIN_FIELDS:
        raise ConfigError(
            "domain.kind", f"expected one of {sorted(_DOMAIN_FIELDS)}, got {kind!r}"
        )
    extra = set(domain_raw) - {"kind", *_DOMAIN_FIELDS[kind]}
    if extra:
        raise ConfigError("domain", f"unknown field(s) {sorted(extra)}")
    spec = {"kind": kind}
    for key in _DOMAIN_FIELDS[kind]:
        if key not in domain_raw:
            raise ConfigError(f"domain.{key}", "required field is missing")
        spec[key] = _number("domain", key, domain_raw[key])
    dim = 1 if kind == "interval" else 2

    exp_fields = _section(
        raw, "exponents", ("s", "s1", "s2", "p", "q"), {}, defaulted
    )
    exp_fields = {k: _number("exponents", k, v) for k, v in exp_fields.items()}
    try:
        exponents = ProblemExponents(dim=dim, **exp_fields)
    except ValueError as e:
        raise ConfigError("exponents", str(e)) from e

    reac_fields = _section(
        raw,
        "reaction",
        ("gamma", "c1", "c2", "r", "family"),
        {"gamma": 0.5, "c1": 0.5, "c2": 0.5, "r": 1.1, "family": "singular"},
        defaulted,
    )
    family = reac_fields.pop("family")
    if not isinstance(family, str):
        raise ConfigError("reaction.family", f"expected a string, got {family!r}")
    reac_fields = {k: _number("reaction", k, v) for k, v in reac_fields.items()}
    try:
        reaction = SingularReaction(family=family, **reac_fields)
    except ValueError as e:
        raise ConfigError("reaction", str(e)) from e

    conv_fields = _section(
        raw, "convective", ("c3", "zeta"), {"c3": 0.0, "zeta": 1.2}, defaulted
    )
    conv_fields = {k: _number("convective", k, v) for k, v in conv_fields.items()}
    try:
        convective = ConvectiveReaction(**conv_fields)
    except ValueError as e:
        raise ConfigError("convective", str(e)) from e

    inner_tol = default_tol(dim)
    min_fields = _section(
        raw, "minimizer", ("tol", "max_iter"), {"tol": inner_tol, "max_iter": 5000}, defaulted
    )
    min_fields["max_iter"] = _integer("minimizer", "max_iter", min_fields["max_iter"])
    min_fields["tol"] = _number("minimizer", "tol", min_fields["tol"])
    try:
        minimizer = MinimizerOptions(**min_fields)
    except ValueError as e:
        raise ConfigError("minimizer", str(e)) from e

    outer_fields = _section(
        raw,
        "outer",
        ("theta", "tol", "max_outer", "ball_monitor"),
        {"theta": 0.5, "tol": inner_tol, "max_outer": 40, "ball_monitor": True},
        defaulted,
    )
    outer_fields["max_outer"] = _integer("outer", "max_outer", outer_fields["max_outer"])
    if not isinstance(outer_fields["ball_monitor"], bool):
        raise ConfigError(
            "outer.ball_monitor",
            f"expected a boolean, got {outer_fields['ball_monitor']!r}",
        )
    for key in ("theta", "tol"):
        outer_fields[key] = _number("outer", key, outer_fields[key])
    try:
        outer = OuterOptions(**outer_fields)
    except ValueError as e:
        raise ConfigError("outer", str(e)) from e

    if "resolution" in raw:
        resolution = _integer("config", "resolution", raw["resolution"])
    else:
        resolution = 17 if dim == 1 else 11
        defaulted.append("resolution")
        logger.info("default applied: resolution = %r", resolution)
    if resolution < 3:
        raise ConfigError("resolution", f"must be at least 3, got {resolution}")

    output_dir = raw.get("output_dir", "out")
    if "output_dir" not in raw:
        defaulted.append("output_dir")
        logger.info("default applied: output_dir = %r", output_dir)
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir", f"expected a string, got {output_dir!r}")

    cache_dir = raw.get("cache_dir", None)
    if "cache_dir" not in raw:
        defaulted.append("cache_dir")
        logger.info("default applied: cache_dir = %r", cache_dir)
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ConfigError("cache_dir", f"expected a string or null, got {cache_dir!r}")

    if "seed" in raw:
        seed = _integer("config", "seed", raw["seed"])
    else:
        seed = 0
        defaulted.append("seed")
        logger.info("default applied: seed = %r", seed)

    try:
        grid = build_grid(_build_domain(spec), resolution)
    except ValueError as e:
        raise ConfigError("domain", str(e)) from e
    if grid.n_interior > NODE_CAP:
        raise ConfigError(
            "resolution",
            f"{grid.n_interior} interior nodes exceed the pair-pass cap of {NODE_CAP}",
        )

    hypotheses = check_hypotheses(exponents, reaction, convective)
    if require_hypotheses and not hypotheses.passed:
        raise HypothesisError(hypotheses.failures)

    return RunConfig(
        domain_spec=spec,
        resolution=resolution,
        exponents=exponents,
        reaction=reaction,
        convective=convective,
        minimizer=minimizer,
        outer=outer,
        output_dir=output_dir,
        cache_dir=cache_dir,
        seed=seed,
        hypotheses=hypotheses,
        defaulted=defaulted,
    )
