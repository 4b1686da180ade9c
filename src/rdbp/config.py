"""JSON run configuration: strict parsing with field-path error messages.

Unknown keys are rejected and every complaint names the offending path
(for example ``laws.claim.kind``), which makes batch config debugging
bearable.  Law parameters follow the {"kind": ..., "params": {...}} shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .distributions import (
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    ScaledBeta,
    Uniform,
)
from .engine import EXPLOSION_CAP_DEFAULT, HORIZON_DEFAULT
from .montecarlo import McConfig
from .policies import POLICY_TOKENS
from .universe import Seed

__all__ = ["ConfigError", "RunConfig", "ProcessParams", "parse_run_config",
           "claim_law_to_json", "resource_law_to_json", "offspring_law_to_json"]

CHECK_NAMES = ("dominance", "envelope", "safe_haven", "superadditivity", "counterexample", "sf_probe")


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


def _number(obj: Mapping, path: str, key: str, default=None) -> Optional[float]:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(val)


def _integer(obj: Mapping, path: str, key: str, default=None) -> Optional[int]:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return val


def _integer_from(obj: Mapping, path: str, key: str, least: int, default=None) -> int:
    val = _integer(obj, path, key, default)
    if val < least:
        raise ConfigError(f"{path}.{key}: expected an integer >= {least}")
    return val


def _count_param(obj: Mapping, path: str, key: str) -> None:
    _integer_from(obj, path, key, 1)


def _counts_param(obj: Mapping, path: str, key: str) -> None:
    raw = obj[key]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise ConfigError(f"{path}.{key}: expected a non-empty list of integers >= 1")
    for i, val in enumerate(raw):
        _count_param({f"{key}[{i}]": val}, path, f"{key}[{i}]")


def _policy_param(obj: Mapping, path: str, key: str) -> None:
    if obj[key] not in POLICY_TOKENS:
        raise ConfigError(f"{path}.{key}: expected one of {', '.join(POLICY_TOKENS)}, got {obj[key]!r}")


def _slack_param(obj: Mapping, path: str, key: str) -> None:
    if not 0.0 <= _number(obj, path, key) < math.inf:
        raise ConfigError(f"{path}.{key}: expected a finite number >= 0")


def _level_param(obj: Mapping, path: str, key: str) -> None:
    if not 0.0 < _number(obj, path, key) < 1.0:
        raise ConfigError(f"{path}.{key}: expected a number in (0, 1)")


#: each check's parameters, with the test each value must pass
_CHECK_PARAMS = {
    "dominance": {"policy": _policy_param, "initial_size": _count_param},
    "envelope": {"policy": _policy_param, "min_size": _count_param, "slack": _slack_param,
                 "initial_size": _count_param},
    "safe_haven": {"initial_sizes": _counts_param},
    "superadditivity": {"initial_size": _count_param, "n_gens": _count_param, "alpha": _level_param},
    "counterexample": {"budget": _count_param},
    "sf_probe": {"t_values": _counts_param, "v_max": _count_param},
}


def offspring_law_from_json(obj: Any, path: str) -> OffspringLaw:
    obj = _as_mapping(obj, path)
    _reject_unknown(obj, path, ("probabilities",))
    probs = _get_required(obj, path, "probabilities")
    if not isinstance(probs, Sequence) or isinstance(probs, (str, bytes)):
        raise ConfigError(f"{path}.probabilities: expected a list of numbers")
    try:
        return OffspringLaw(tuple(float(p) for p in probs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.probabilities: {exc}") from exc


def _scalar_law_from_json(obj: Any, path: str, kinds: Mapping[str, Any]):
    obj = _as_mapping(obj, path)
    _reject_unknown(obj, path, ("kind", "params"))
    kind = _get_required(obj, path, "kind")
    if kind not in kinds:
        raise ConfigError(f"{path}.kind: expected one of {', '.join(kinds)}, got {kind!r}")
    params = _as_mapping(_get_required(obj, path, "params"), f"{path}.params")
    try:
        return kinds[kind](params, f"{path}.params")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}.params: {exc}") from exc


def _claim_uniform(params: Mapping, path: str) -> Uniform:
    _reject_unknown(params, path, ("d",))
    return Uniform(0.0, _number(params, path, "d"))


def _resource_uniform(params: Mapping, path: str) -> Uniform:
    _reject_unknown(params, path, ("lo", "hi"))
    return Uniform(_number(params, path, "lo"), _number(params, path, "hi"))


def _scaled_beta(params: Mapping, path: str) -> ScaledBeta:
    _reject_unknown(params, path, ("a", "b", "scale"))
    return ScaledBeta(
        _number(params, path, "a"),
        _number(params, path, "b"),
        _number(params, path, "scale", default=1.0),
    )


def _exponential(params: Mapping, path: str) -> Exponential:
    _reject_unknown(params, path, ("rate",))
    return Exponential(_number(params, path, "rate"))


def _constant(params: Mapping, path: str) -> Constant:
    _reject_unknown(params, path, ("value",))
    return Constant(_number(params, path, "value"))


_CLAIM_KINDS = {
    "uniform": _claim_uniform,
    "scaled_beta": _scaled_beta,
    "exponential": _exponential,
    "constant": _constant,
}

_RESOURCE_KINDS = {
    "uniform": _resource_uniform,
    "scaled_beta": _scaled_beta,
    "constant": _constant,
}


def claim_law_from_json(obj: Any, path: str):
    return _scalar_law_from_json(obj, path, _CLAIM_KINDS)


def resource_law_from_json(obj: Any, path: str):
    return _scalar_law_from_json(obj, path, _RESOURCE_KINDS)


def offspring_law_to_json(law: OffspringLaw) -> dict:
    return {"probabilities": list(law.probabilities)}


def claim_law_to_json(law) -> dict:
    if isinstance(law, Uniform):
        return {"kind": "uniform", "params": {"d": law.hi}}
    return resource_law_to_json(law)


def resource_law_to_json(law) -> dict:
    if isinstance(law, Uniform):
        return {"kind": "uniform", "params": {"lo": law.lo, "hi": law.hi}}
    if isinstance(law, ScaledBeta):
        return {"kind": "scaled_beta", "params": {"a": law.a, "b": law.b, "scale": law.scale}}
    if isinstance(law, Exponential):
        return {"kind": "exponential", "params": {"rate": law.rate}}
    if isinstance(law, Constant):
        return {"kind": "constant", "params": {"value": law.value}}
    raise TypeError(f"cannot serialise law {type(law).__name__}")


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

    if seed_override is not None:
        seed = seed_override
    elif "seed" in data:
        raw = data["seed"]
        if isinstance(raw, int) and not isinstance(raw, bool):
            try:
                seed = Seed(raw)
            except ValueError as exc:
                raise ConfigError(f"config.seed: {exc}") from exc
        elif isinstance(raw, str):
            try:
                seed = Seed.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config.seed: {exc}") from exc
        else:
            raise ConfigError("config.seed: expected an integer or a decimal/0x-hex string")
    else:
        seed = Seed(0)

    offspring = claim = resource = None
    if "laws" in data:
        laws = _as_mapping(data["laws"], "laws")
        _reject_unknown(laws, "laws", ("offspring", "claim", "resource"))
        if "offspring" in laws:
            offspring = offspring_law_from_json(laws["offspring"], "laws.offspring")
        if "claim" in laws:
            claim = claim_law_from_json(laws["claim"], "laws.claim")
        if "resource" in laws:
            resource = resource_law_from_json(laws["resource"], "laws.resource")

    policy = None
    if "policy" in data:
        policy = data["policy"]
        if policy not in POLICY_TOKENS:
            raise ConfigError(f"config.policy: expected one of {', '.join(POLICY_TOKENS)}, got {policy!r}")

    # both blocks are range-checked here, so their errors name the field
    proc = _as_mapping(data.get("process", {}), "process")
    _reject_unknown(proc, "process", ("initial_size", "horizon", "explosion_cap"))
    initial_size = _integer_from(proc, "process", "initial_size", 1, 1)
    process = ProcessParams(
        initial_size=initial_size,
        horizon=_integer_from(proc, "process", "horizon", 1, HORIZON_DEFAULT),
        explosion_cap=_integer_from(proc, "process", "explosion_cap", initial_size + 1, EXPLOSION_CAP_DEFAULT),
    )

    mc_obj = _as_mapping(data.get("mc", {}), "mc")
    _reject_unknown(mc_obj, "mc", ("replicates", "horizon", "explosion_cap", "confidence"))
    if "confidence" in mc_obj:
        _level_param(mc_obj, "mc", "confidence")
    mc = McConfig(
        replicates=_integer_from(mc_obj, "mc", "replicates", 1, 2000),
        horizon=_integer_from(mc_obj, "mc", "horizon", 1, HORIZON_DEFAULT),
        explosion_cap=_integer_from(mc_obj, "mc", "explosion_cap", 2, EXPLOSION_CAP_DEFAULT),
        base_seed=seed,
        confidence=_number(mc_obj, "mc", "confidence", 0.99),
    )

    m_grid = None
    if "m_grid" in data:
        raw = data["m_grid"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
            raise ConfigError("config.m_grid: expected a non-empty list of numbers")
        vals = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"config.m_grid[{i}]: expected a number")
            if not 1.0 < v < math.inf:
                raise ConfigError(f"config.m_grid[{i}]: offspring mean must be in (1, inf)")
            vals.append(float(v))
        m_grid = tuple(vals)

    checks = None
    if "checks" in data:
        raw = data["checks"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
            raise ConfigError("config.checks: expected a non-empty list of check names")
        for i, name in enumerate(raw):
            if name not in CHECK_NAMES:
                raise ConfigError(
                    f"config.checks[{i}]: unknown check {name!r}; expected one of {', '.join(CHECK_NAMES)}"
                )
        checks = tuple(raw)

    check_params = {}
    if "check_params" in data:
        cp = _as_mapping(data["check_params"], "check_params")
        for name, params in cp.items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"check_params.{name}: unknown check")
            path = f"check_params.{name}"
            params = _as_mapping(params, path)
            _reject_unknown(params, path, tuple(_CHECK_PARAMS[name]))
            for key, check in _CHECK_PARAMS[name].items():
                if key in params:
                    check(params, path, key)
            check_params[name] = dict(params)

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
