"""Instance generation, the 20-node benchmark fixture, and persistence.

Instance files are single JSON documents; fuzzy triples are serialized as
[lo, mid, hi] and the distance matrix row-major as nested lists.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DomainError, InstanceFormatError
from .fuzzy import TriFuzzy, check_count, is_count, is_number
from .model import Instance
from .reports import check_seed

TABLE1_SHA256 = "172a3c7598cd8bb5d8947d4d27b27de7bcfd52b3584cb20bac03207f75c9db6e"


@dataclass(frozen=True)
class GeneratorParams:
    """Ranges for random instance generation.

    Fuzzy rates are drawn as an integer lo plus fixed offsets so the triple
    ordering holds by construction.
    """

    n: int
    m_servers: int
    demand_lo_range: tuple[int, int] = (4, 80)
    demand_offsets: tuple[int, int] = (50, 100)
    service_lo_range: tuple[int, int] = (144, 190)
    service_offsets: tuple[int, int] = (50, 100)
    distance_range: tuple[int, int] = (1, 35)
    idle_min: TriFuzzy = field(default_factory=lambda: TriFuzzy(0.1, 0.15, 0.2))
    mql: float = 25.0
    gamma: float = 0.5
    logit_sensitivity: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("demand_lo_range", "service_lo_range", "distance_range"):
            low, high = getattr(self, name)
            if low > high:
                raise DomainError(f"{name} is empty: [{low}, {high}]")
        for name in ("demand_offsets", "service_offsets"):
            first, second = getattr(self, name)
            if not (0 < first < second):
                raise DomainError(f"{name} must be positive and increasing")
        if self.distance_range[0] < 1:
            raise DomainError("distances must be positive")
        check_count("n", self.n, 2, "instance needs at least two nodes")
        check_seed(self.seed)


def _fuzzy_column(rng: np.random.Generator, n: int, lo_range, offsets) -> np.ndarray:
    lo = rng.integers(lo_range[0], lo_range[1] + 1, size=n).astype(float)
    return np.stack([lo, lo + offsets[0], lo + offsets[1]], axis=1)


def generate_instance(params: GeneratorParams) -> Instance:
    """Draw a random instance; deterministic for a fixed seed."""
    rng = np.random.default_rng(params.seed)
    demand = _fuzzy_column(rng, params.n, params.demand_lo_range, params.demand_offsets)
    service = _fuzzy_column(rng, params.n, params.service_lo_range, params.service_offsets)
    low, high = params.distance_range
    upper = rng.integers(low, high + 1, size=(params.n, params.n)).astype(float)
    distance = np.triu(upper, k=1)
    distance = distance + distance.T
    return Instance(
        n=params.n,
        m_servers=params.m_servers,
        distance=distance,
        demand=demand,
        service=service,
        idle_min=params.idle_min,
        mql=params.mql,
        gamma=params.gamma,
        logit_sensitivity=params.logit_sensitivity,
    )


def instance_to_dict(instance: Instance) -> dict:
    doc = {
        "n": instance.n,
        "m_servers": instance.m_servers,
        "mql": instance.mql,
        "gamma": instance.gamma,
        "logit_sensitivity": instance.logit_sensitivity,
        "idle_min": list(instance.idle_min.as_tuple()),
        "demand": instance.demand.tolist(),
        "service": instance.service.tolist(),
        "distance": instance.distance.tolist(),
    }
    if instance.benefit_weight is not None:
        doc["benefit_weight"] = instance.benefit_weight.tolist()
    return doc


def _field(doc: dict, key: str, convert, what: str):
    """``convert(doc[key])``; a value of the wrong type or length raises an
    InstanceFormatError that names the field, what it must be and what it is."""
    try:
        return convert(doc[key])
    except DomainError:  # a value of the right type that breaks a rule
        raise
    except (TypeError, ValueError, OverflowError):
        raise InstanceFormatError(f"{key} must be {what}, got {reprlib.repr(doc[key])}") from None


def _count(value) -> int:
    """A JSON integer as it is: a float or a bool is not a count (is_count)."""
    if not is_count(value):
        raise TypeError(value)
    return value


def _number(value) -> float:
    """A JSON number as a float: a bool or a numeric string is not a
    number (fuzzy.is_number)."""
    if not is_number(value):
        raise TypeError(value)
    return float(value)


def _matrix(doc: dict, key: str, n: int, width: int, malformed_row: str) -> np.ndarray:
    """``doc[key]`` as an (n, width) float array; a wrong row count, row
    length or entry type raises an InstanceFormatError naming the field."""
    lengths = _field(doc, key, lambda rows: [len(row) for row in rows], "a list of rows")
    if len(lengths) != n:
        raise InstanceFormatError(f"{key} has {len(lengths)} rows, expected {n}")
    for i, length in enumerate(lengths):
        if length != width:
            raise InstanceFormatError(f"{key} row {i + 1} {malformed_row}")
    return _field(doc, key, lambda rows: np.asarray([[_number(v) for v in row] for row in rows]),
                  "rows of numbers")


def instance_from_dict(doc: dict) -> Instance:
    required = ("n", "m_servers", "mql", "gamma", "logit_sensitivity",
                "idle_min", "demand", "service", "distance")
    for key in required:
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    unknown = sorted(doc.keys() - {*required, "benefit_weight"})
    if unknown:
        raise InstanceFormatError(f"unknown field {unknown[0]!r}")
    n = _field(doc, "n", _count, "an integer")
    triple, square = "is not a fuzzy triple", f"malformed (matrix must be {n}x{n})"
    weight = doc.get("benefit_weight")
    if weight is not None:
        weight = _matrix(doc, "benefit_weight", n, n, square)
    try:
        return Instance(
            n=n,
            m_servers=_field(doc, "m_servers", _count, "an integer"),
            demand=_matrix(doc, "demand", n, 3, triple),
            service=_matrix(doc, "service", n, 3, triple),
            distance=_matrix(doc, "distance", n, n, square),
            idle_min=_field(doc, "idle_min", lambda seq: TriFuzzy.from_seq(map(_number, seq)),
                            "a fuzzy triple [lo, mid, hi]"),
            mql=_field(doc, "mql", _number, "a number"),
            gamma=_field(doc, "gamma", _number, "a number"),
            logit_sensitivity=_field(doc, "logit_sensitivity", _number, "a number"),
            benefit_weight=weight,
        )
    except DomainError as exc:
        raise InstanceFormatError(str(exc)) from exc


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), sort_keys=True, indent=1) + "\n")


def load_instance(path) -> Instance:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top-level JSON must be an object")
    return instance_from_dict(doc)


def table1_bytes() -> bytes:
    return resources.files("fuzzloc.data").joinpath("table1.json").read_bytes()


def load_table1() -> Instance:
    """The transcribed 20-node benchmark instance (M=5, default parameters)."""
    raw = table1_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != TABLE1_SHA256:
        raise InstanceFormatError(
            f"table1 fixture checksum mismatch: {digest} != {TABLE1_SHA256}"
        )
    return instance_from_dict(json.loads(raw))
