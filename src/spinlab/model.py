"""Spin-system model representation, weights, and family classification.

A :class:`SpinSystem` is a finite graph with per-edge couplings, a sparse
per-(vertex, spin) external field and ``q`` spin values ``0..q-1``.  The
unnormalized Gibbs weight of a configuration ``sigma`` is

    exp( sum_edges beta(e) * 1[sigma(u) == sigma(v)]
         + sum_v h(v, sigma(v)) )

and everything downstream works with its natural logarithm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import InvalidConfigurationError, InvalidModelError

FIELD_ZERO = "zero"
FIELD_CONSISTENT = "consistent"
FIELD_MONOCHROMATIC = "h-vertex-monochromatic"
FIELD_UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class Configuration:
    """An assignment of a spin in ``0..q-1`` to each vertex."""

    spins: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.spins)

    def __getitem__(self, i: int) -> int:
        return self.spins[i]

    def validate_for(self, model: "SpinSystem") -> None:
        if len(self.spins) != model.n:
            raise InvalidConfigurationError(
                f"configuration length {len(self.spins)} != n={model.n}"
            )
        for s in self.spins:
            if not 0 <= s < model.q:
                raise InvalidConfigurationError(f"spin {s} out of range [0,{model.q})")


@dataclass(frozen=True)
class SpinSystem:
    """Immutable q-state spin model on a simple graph.

    edges: tuple of ``(u, v, beta)`` with ``u < v``; couplings in natural-log
    scale.  field: tuple of ``(v, spin, h)`` entries, sparse.  bipartition:
    optional ``(L, R)`` vertex id tuples covering every edge across.
    """

    q: int
    n: int
    edges: tuple[tuple[int, int, float], ...] = ()
    field: tuple[tuple[int, int, float], ...] = ()
    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __post_init__(self) -> None:
        if self.q < 2:
            raise InvalidModelError(f"q must be >= 2, got {self.q}")
        if self.n < 0:
            raise InvalidModelError(f"n must be >= 0, got {self.n}")
        seen: set[tuple[int, int]] = set()
        norm_edges = []
        for u, v, beta in self.edges:
            if u == v:
                raise InvalidModelError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidModelError(f"edge ({u},{v}) out of range n={self.n}")
            if not math.isfinite(beta):
                raise InvalidModelError(f"non-finite coupling on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidModelError(f"duplicate edge {key}")
            seen.add(key)
            norm_edges.append((key[0], key[1], float(beta)))
        object.__setattr__(self, "edges", tuple(norm_edges))

        norm_field = []
        fseen: set[tuple[int, int]] = set()
        for v, s, h in self.field:
            if not (0 <= v < self.n and 0 <= s < self.q):
                raise InvalidModelError(f"field entry ({v},{s}) out of range")
            if not math.isfinite(h):
                raise InvalidModelError(f"non-finite field at ({v},{s})")
            if (v, s) in fseen:
                raise InvalidModelError(f"duplicate field entry ({v},{s})")
            fseen.add((v, s))
            norm_field.append((int(v), int(s), float(h)))
        object.__setattr__(self, "field", tuple(sorted(norm_field)))

        if self.bipartition is not None:
            left, right = self.bipartition
            lset, rset = set(left), set(right)
            if lset & rset:
                raise InvalidModelError("bipartition parts overlap")
            if lset | rset != set(range(self.n)):
                raise InvalidModelError("bipartition must cover all vertices")
            for u, v, _ in self.edges:
                if (u in lset) == (v in lset):
                    raise InvalidModelError(f"edge ({u},{v}) not across bipartition")
            object.__setattr__(
                self, "bipartition", (tuple(sorted(lset)), tuple(sorted(rset)))
            )

    # -- cached dense views -------------------------------------------------

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.edges:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), np.zeros(0, dtype=float)
        u, v, b = zip(*self.edges)
        return (
            np.asarray(u, dtype=np.int64),
            np.asarray(v, dtype=np.int64),
            np.asarray(b, dtype=float),
        )

    @cached_property
    def field_array(self) -> np.ndarray:
        h = np.zeros((self.n, self.q), dtype=float)
        for v, s, val in self.field:
            h[v, s] = val
        return h

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def log2_states(self) -> float:
        return self.n * math.log2(self.q)


def log_weight(model: SpinSystem, sigma: Configuration | Sequence[int]) -> float:
    """Log of the unnormalized Gibbs weight of ``sigma``."""
    spins = sigma.spins if isinstance(sigma, Configuration) else tuple(sigma)
    Configuration(tuple(int(s) for s in spins)).validate_for(model)
    arr = np.asarray(spins, dtype=np.int64)
    u, v, b = model.edge_arrays
    total = float(np.sum(b * (arr[u] == arr[v]))) if len(b) else 0.0
    if model.field:
        total += float(model.field_array[np.arange(model.n), arr].sum())
    return total


def classify_field(model: SpinSystem) -> str:
    """Tightest field class: zero < consistent (Ising) < h-vertex-monochromatic < unrestricted."""
    h = model.field_array
    if not model.field or not np.any(h):
        return FIELD_ZERO
    if model.q == 2 and np.all(h[:, 1] == 0.0) and np.all(h[:, 0] >= 0.0):
        return FIELD_CONSISTENT
    nonzero_per_vertex = np.count_nonzero(h, axis=1)
    if np.all(nonzero_per_vertex <= 1):
        return FIELD_MONOCHROMATIC
    return FIELD_UNRESTRICTED


# -- canonical JSON document ------------------------------------------------

# An edge (u, v, beta) or a field entry (v, spin, h): two integer ids, then a weight.
_TRIPLE: dict = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "prefixItems": [{"type": "integer"}, {"type": "integer"}, {"type": "number"}],
}

MODEL_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["q", "n", "edges", "field"],
    "additionalProperties": False,
    "properties": {
        "q": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 0},
        "edges": {"type": "array", "items": _TRIPLE},
        "field": {"type": "array", "items": _TRIPLE},
        "bipartition": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}


@cache
def _model_validator() -> Draft202012Validator:
    """MODEL_SCHEMA's validator, built on first use; the schema itself is
    checked by the test suite rather than on every load."""
    return Draft202012Validator(MODEL_SCHEMA)


def model_to_dict(model: SpinSystem) -> dict:
    doc: dict = {
        "q": model.q,
        "n": model.n,
        "edges": [[u, v, b] for u, v, b in model.edges],
        "field": [[v, s, h] for v, s, h in model.field],
    }
    if model.bipartition is not None:
        doc["bipartition"] = [list(model.bipartition[0]), list(model.bipartition[1])]
    return doc


def model_from_dict(doc: Mapping) -> SpinSystem:
    error = best_match(_model_validator().iter_errors(doc))
    if error is not None:
        raise error
    bip = None
    if doc.get("bipartition") is not None:
        bip = (tuple(doc["bipartition"][0]), tuple(doc["bipartition"][1]))
    return SpinSystem(
        q=int(doc["q"]),
        n=int(doc["n"]),
        edges=tuple((int(u), int(v), float(b)) for u, v, b in doc["edges"]),
        field=tuple((int(v), int(s), float(h)) for v, s, h in doc["field"]),
        bipartition=bip,
    )


def save_model(model: SpinSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> SpinSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def disjoint_union(models: Iterable[SpinSystem]) -> SpinSystem:
    """Disjoint union: vertex ids of later models are shifted."""
    models = list(models)
    if not models:
        raise InvalidModelError("empty union")
    q = models[0].q
    if any(m.q != q for m in models):
        raise InvalidModelError("all models in a union must share q")
    edges: list[tuple[int, int, float]] = []
    field: list[tuple[int, int, float]] = []
    offset = 0
    for m in models:
        edges.extend((u + offset, v + offset, b) for u, v, b in m.edges)
        field.extend((v + offset, s, h) for v, s, h in m.field)
        offset += m.n
    return SpinSystem(q=q, n=offset, edges=tuple(edges), field=tuple(field))
