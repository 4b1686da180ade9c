"""JSON run configuration: strict parsing with field-path error messages.

Unknown keys are rejected and every complaint names the offending path
(for example ``laws.claim.kind``), which makes batch config debugging
bearable.  Law parameters follow the {"kind": ..., "params": {...}} shape.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence

from .distributions import (
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Uniform,
)
from . import engine
from .engine import EXPLOSION_CAP_DEFAULT, HORIZON_DEFAULT
from .montecarlo import McConfig
from .policies import POLICY_TOKENS
from .universe import Seed

__all__ = ["ConfigError", "RunConfig", "ProcessParams", "parse_run_config", "law_to_json",
           "offspring_law_to_json"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the JSON path."""


def _as_mapping(obj: Any, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: Mapping, path: str, allowed: Sequence[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _get_required(obj: Mapping, path: str, key: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


def _fields(obj: Any, path: str, reads: Mapping[str, Callable[[Any, str], Any]], required=()) -> dict:
    """The fields of the block ``obj`` that it sets, or that ``required``
    names, each checked by its ``read(value, path)``.  A field it leaves
    out is absent, so the class built from the result applies its own
    default; an unknown field is refused."""
    obj = _as_mapping(obj, path)
    _reject_unknown(obj, path, tuple(reads))
    return {key: read(_get_required(obj, path, key), f"{path}.{key}")
            for key, read in reads.items() if key in obj or key in required}


def _number(val: Any, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(val)
    except OverflowError:  # an integer past double range reads as 1e400 does
        return math.inf if val > 0 else -math.inf


def _integer(val: Any, path: str, least: int = 1, most: Optional[int] = None) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer")
    if val < least:
        raise ConfigError(f"{path}: expected an integer >= {least}")
    if most is not None and val > most:
        raise ConfigError(f"{path}: expected an integer <= {most}")
    return val


def _list(val: Any, path: str, what: str, item: Callable[[Any, str], Any]) -> tuple:
    """A non-empty list, each item checked by ``item(value, path)``."""
    if not isinstance(val, Sequence) or isinstance(val, (str, bytes)) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of {what}")
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(val))


def _policy(val: Any, path: str) -> str:
    if val not in POLICY_TOKENS:
        raise ConfigError(f"{path}: expected one of {', '.join(POLICY_TOKENS)}, got {val!r}")
    return val


def _slack(val: Any, path: str) -> float:
    if not 0.0 <= _number(val, path) < math.inf:
        raise ConfigError(f"{path}: expected a finite number >= 0")
    return float(val)


def _level(val: Any, path: str) -> float:
    if not 0.0 < _number(val, path) < 1.0:
        raise ConfigError(f"{path}: expected a number in (0, 1)")
    return float(val)


def _mean(val: Any, path: str) -> float:
    if not 1.0 < _number(val, path) < math.inf:
        raise ConfigError(f"{path}: offspring mean must be in (1, inf)")
    return float(val)


def _check_name(val: Any, path: str) -> str:
    if val not in CHECK_NAMES:
        raise ConfigError(f"{path}: unknown check {val!r}; expected one of {', '.join(CHECK_NAMES)}")
    return val


def _check_names(val: Any, path: str) -> tuple[str, ...]:
    names = _list(val, path, "check names", _check_name)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{path}[{i}]: check {name!r} is listed twice")
    return names


def _founders(val: Any, path: str) -> int:
    # only the founders can outnumber the claim cap; every later generation
    # is served children.  The cap is read here, not bound at import
    return _integer(val, path, most=engine.CLAIM_CAP)


def _founder_counts(val: Any, path: str) -> tuple[int, ...]:
    # the checks compare each count's result with the one before it
    counts = _list(val, path, "integers >= 1", _founders)
    for i in range(1, len(counts)):
        if counts[i] <= counts[i - 1]:
            raise ConfigError(f"{path}[{i}]: expected an integer > {counts[i - 1]}, as the list must increase")
    return counts

#: each check's parameters, with the test each value must pass
_CHECK_PARAMS = {
    "dominance": {"policy": _policy, "initial_size": _founders},
    "envelope": {"policy": _policy, "min_size": _integer, "slack": _slack, "initial_size": _founders},
    "safe_haven": {"initial_sizes": _founder_counts},
    "superadditivity": {"initial_size": _founders, "n_gens": _integer, "alpha": _level},
    "counterexample": {"budget": _integer},
    "sf_probe": {"t_values": _founder_counts, "v_max": _integer},
}
CHECK_NAMES = tuple(_CHECK_PARAMS)
#: the process and mc blocks' fields, with the test each value must pass.
#: process.explosion_cap is bounded below by the founder count, which is
#: known only once the defaults apply
_PROCESS = {"initial_size": _founders, "horizon": _integer, "explosion_cap": partial(_integer, least=-math.inf)}
_MC = {"confidence": _level, "replicates": _integer, "horizon": _integer, "explosion_cap": partial(_integer, least=2)}

#: each law kind: its class, its params in constructor order and the roles
#: that take it.  A param the constructor gives a default may be left out.
#: A uniform claim is U(0, d): its one param d is the constructor's hi
_LAWS = {
    "uniform": (Uniform, ("lo", "hi"), ("claim", "resource")),
    "scaled_beta": (ScaledBeta, ("a", "b", "scale"), ("claim", "resource")),
    "exponential": (Exponential, ("rate",), ("claim",)),
    "constant": (Constant, ("value",), ("claim", "resource")),
}


def offspring_law_from_json(obj: Any, path: str) -> OffspringLaw:
    obj = _as_mapping(obj, path)
    _reject_unknown(obj, path, ("probabilities",))
    probs = _get_required(obj, path, "probabilities")
    if not isinstance(probs, Sequence) or isinstance(probs, (str, bytes)):
        raise ConfigError(f"{path}.probabilities: expected a list of numbers")
    try:
        return OffspringLaw(tuple(float(p) for p in probs))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.probabilities: {exc}") from exc


def _law_from_json(obj: Any, role: str):
    """The claim or resource law (``role``) of ``laws.<role>``."""
    path = f"laws.{role}"
    obj = _as_mapping(obj, path)
    _reject_unknown(obj, path, ("kind", "params"))
    kind = _get_required(obj, path, "kind")
    kinds = [name for name, (_, _, roles) in _LAWS.items() if role in roles]
    if kind not in kinds:
        raise ConfigError(f"{path}.kind: expected one of {', '.join(kinds)}, got {kind!r}")
    cls, names, _ = _LAWS[kind]
    if role == "claim" and kind == "uniform":
        cls, names = _uniform_claim, ("d",)
    required = [key for key, param in inspect.signature(cls).parameters.items() if param.default is param.empty]
    values = _fields(_get_required(obj, path, "params"), f"{path}.params", dict.fromkeys(names, _number), required)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}.params: {exc}") from exc


def _uniform_claim(d: float) -> Uniform:
    return Uniform(0.0, d)


def offspring_law_to_json(law: OffspringLaw) -> dict:
    return {"probabilities": list(law.probabilities)}


def law_to_json(law, claim: bool = False) -> dict:
    """A claim law (``claim``) or resource law in the form ``laws.*`` reads."""
    kind = getattr(law, "kind", None)
    if kind not in _LAWS:
        raise TypeError(f"cannot serialise law {type(law).__name__}")
    if claim and kind == "uniform":
        if law.lo != 0.0:
            raise ConfigError(f"laws.claim: a uniform claim reads as U(0, d), so U({law.lo!r}, {law.hi!r}) "
                              "has no config form")
        return {"kind": kind, "params": {"d": law.hi}}
    return {"kind": kind, "params": {key: getattr(law, key) for key in _LAWS[kind][1]}}


@dataclass(frozen=True)
class ProcessParams:
    initial_size: int = 1
    horizon: int = HORIZON_DEFAULT
    explosion_cap: int = EXPLOSION_CAP_DEFAULT


@dataclass(frozen=True)
class RunConfig:
    seed: Seed
    offspring: Optional[OffspringLaw]
    claim: Optional[Any]
    resource: Optional[Any]
    policy: Optional[str]
    process: ProcessParams
    mc: McConfig
    m_grid: Optional[tuple[float, ...]]
    checks: Optional[tuple[str, ...]]
    check_params: dict

    def triple(self) -> LawTriple:
        missing = [
            f"laws.{name}"
            for name, law in (("offspring", self.offspring), ("claim", self.claim), ("resource", self.resource))
            if law is None
        ]
        if missing:
            raise ConfigError(f"{missing[0]}: missing required field")
        return LawTriple(self.offspring, self.claim, self.resource)


_TOP_KEYS = ("seed", "laws", "policy", "process", "mc", "m_grid", "checks", "check_params")


def parse_run_config(data: Any, seed_override: Optional[Seed] = None) -> RunConfig:
    data = _as_mapping(data, "config")
    _reject_unknown(data, "config", _TOP_KEYS)

    seed = seed_override
    if seed is None:
        raw = data.get("seed", 0)
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ConfigError("config.seed: expected an integer or a decimal/0x-hex string")
        try:
            seed = Seed.parse(raw) if isinstance(raw, str) else Seed(raw)
        except ValueError as exc:
            raise ConfigError(f"config.seed: {exc}") from exc

    laws = _as_mapping(data.get("laws", {}), "laws")
    _reject_unknown(laws, "laws", ("offspring", "claim", "resource"))
    offspring = offspring_law_from_json(laws["offspring"], "laws.offspring") if "offspring" in laws else None
    claim, resource = (_law_from_json(laws[role], role) if role in laws else None for role in ("claim", "resource"))

    policy = _policy(data["policy"], "config.policy") if "policy" in data else None

    # both blocks are range-checked here, so their errors name the field;
    # the cap is checked with the defaults applied, as simulate runs it
    process = ProcessParams(**_fields(data.get("process", {}), "process", _PROCESS))
    if process.explosion_cap <= process.initial_size:
        raise ConfigError(f"process.explosion_cap: expected an integer >= {process.initial_size + 1}")
    mc = McConfig(base_seed=seed, **_fields(data.get("mc", {}), "mc", _MC))

    m_grid = _list(data["m_grid"], "config.m_grid", "numbers", _mean) if "m_grid" in data else None
    checks = _check_names(data["checks"], "config.checks") if "checks" in data else None

    check_params = {}
    for name, params in _as_mapping(data.get("check_params", {}), "check_params").items():
        if name not in CHECK_NAMES:
            raise ConfigError(f"check_params.{name}: unknown check")
        path = f"check_params.{name}"
        check_params[name] = _fields(params, path, _CHECK_PARAMS[name])
        # an explicit founder count must be below the Monte Carlo cap; one
        # taken from the process block may suit simulate, so it stays a
        # run-time error of the check
        if name in ("dominance", "envelope") and check_params[name].get("initial_size", 0) >= mc.explosion_cap:
            raise ConfigError(f"{path}.initial_size: expected an integer < mc.explosion_cap = {mc.explosion_cap}")

    return RunConfig(
        seed=seed,
        offspring=offspring,
        claim=claim,
        resource=resource,
        policy=policy,
        process=process,
        mc=mc,
        m_grid=m_grid,
        checks=checks,
        check_params=check_params,
    )
