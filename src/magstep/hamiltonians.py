"""Declarative time-dependent Hermitian Hamiltonians built from sinusoids.

A model lists the upper triangle of the matrix; every entry is a constant
offset plus a sum of ``amp * sin(omega * t + phase)`` terms.  The lower
triangle is always the conjugate of the upper one, so sampling at any time
yields a Hermitian matrix by construction.  The four builtin two-state
parameter cases drive the bundled convergence experiments.

Sampling goes through one sinusoid table per model
(:meth:`HamiltonianModel._sinusoids`): a row per distinct ``(omega,
phase)`` pair, evaluated once per sampled time in one pass, and each
entry's terms as ``(row, amplitude)``.  Each entry's real part is summed
from the table in real arithmetic, ``offset.real + 0.0`` and then each
term's ``sin * amp`` in term order, the operations and order of evaluating
every term on its own, so the floats are the same.  In every builtin case
two or three entries share one ``sin(t)``.  The table is built on each call
from ``upper_triangle``, which a model holds read-only.

A two-level model also gives its samples as the real su(2) coordinates the
step builders take (:meth:`HamiltonianModel.su2_coordinates`), computed from
the entries' real parts and the coupling's constant imaginary part: the
same floats as ``linalg.su2_coordinates`` of
:meth:`HamiltonianModel.sample_many`, without the complex matrices.  The
evolution driver samples a two-level model that way, and a larger one by
``sample_many``, each grid time once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import Array

__all__ = [
    "ModelError",
    "SinusoidTerm",
    "EntrySpec",
    "HamiltonianModel",
    "BUILTIN_CASES",
    "builtin_case",
    "load_model",
]


class ModelError(ValueError):
    """Invalid Hamiltonian model definition."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ModelError(f"{name}: non-finite value {v!r}")


@dataclass(frozen=True)
class SinusoidTerm:
    """One ``amplitude * sin(angular_frequency * t + phase)`` contribution."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0

    def __post_init__(self):
        _require_finite("SinusoidTerm", self.amplitude, self.angular_frequency, self.phase)


@dataclass(frozen=True)
class EntrySpec:
    """Constant offset plus sinusoid terms for a single matrix entry."""

    offset: complex = 0j
    terms: tuple[SinusoidTerm, ...] = ()

    def __post_init__(self):
        # the parts, not abs(): the modulus of a finite offset can overflow
        _require_finite("EntrySpec offset", self.offset.real, self.offset.imag)
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class HamiltonianModel:
    """Hermitian matrix model; ``upper_triangle`` maps ``(i, j)`` with ``i <= j``.

    The model keeps a read-only copy of the mapping it is given, so neither
    a later change to the caller's dict nor an assignment through
    ``upper_triangle`` (a ``TypeError``) can get past the checks here."""

    dim: int
    upper_triangle: Mapping[tuple[int, int], EntrySpec] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "upper_triangle", MappingProxyType(dict(self.upper_triangle)))
        if self.dim < 1:
            raise ModelError(f"dim must be positive, got {self.dim}")
        for (i, j), entry in self.upper_triangle.items():
            if not (0 <= i <= j < self.dim):
                raise ModelError(f"entry ({i}, {j}) outside upper triangle of dim {self.dim}")
            if i == j:
                if entry.offset.imag != 0.0:
                    raise ModelError(f"diagonal entry ({i}, {i}) has complex offset {entry.offset}")
                # amplitudes are real by type, so diagonal sinusoids are automatically real

    def sample(self, t: float) -> Array:
        """Hamiltonian matrix at time ``t``, shape ``(dim, dim)``."""
        return self.sample_many(t)

    def _sinusoids(self, ts: Array) -> tuple[Array, dict]:
        """The model's sinusoid table evaluated at ``ts``, and each entry's
        terms in order as ``(row, amplitude)``, keyed as ``upper_triangle``.

        The table has one row per distinct ``(omega, phase)`` pair, in order
        of first use; row ``r`` holds ``sin(omega_r * t + phase_r)``, shape
        ``(rows,) + ts.shape``, formed by the operations of one term
        (``omega * t``, ``+ phase``, ``sin``) in one pass over all rows.  The
        table is built per call, so it follows ``upper_triangle``.  Pairs
        differing only in the sign of a zero share a row: the products of
        such a row differ at most in the sign of a zero, which adds nothing
        to an entry's sum (see :func:`_real_part`).
        """
        rows: dict[tuple[float, float], int] = {}
        terms = {
            ij: [(rows.setdefault((t.angular_frequency, t.phase), len(rows)), t.amplitude) for t in entry.terms]
            for ij, entry in self.upper_triangle.items()
        }
        pairs = np.array(list(rows), dtype=float).reshape((len(rows), 2) + (1,) * ts.ndim)
        sines = np.multiply(pairs[:, 0], ts)
        sines += pairs[:, 1]
        return np.sin(sines, out=sines), terms

    def su2_coordinates(self, ts) -> Array:
        """su(2) coordinates of a two-level model at times ``ts``: the real,
        component-major ``(4,) + ts.shape`` array ``(c, x, y, z)`` of ``H = c I
        + x sx + y sy + z sz``, as ``linalg.su2_coordinates`` gives them of
        :meth:`sample_many`, with the same floats.

        ``c = h00/2 + h11/2``, ``x = re h01``, ``y = -im h01`` (the coupling's
        constant ``offset.imag``) and ``z = h00/2 - h11/2``.  Each entry's real
        part is summed into its output row from the model's sinusoid table
        (:meth:`_sinusoids`), so each distinct sinusoid is evaluated once per
        time: no complex matrix is built, and every entry is halved before
        two are added, so no finite entry overflows them.  Besides the result
        and the table, one scratch row is held.
        """
        if self.dim != 2:
            raise ModelError(f"su(2) coordinates need a two-level model, got dim {self.dim}")
        ts = np.asarray(ts, dtype=float)
        sines, terms = self._sinusoids(ts)
        out = np.empty((4,) + ts.shape)
        scratch = np.empty(ts.shape)
        # h01's real part into row 1, h00 into row 3 and h11 into row 0
        for row, ij in ((1, (0, 1)), (3, (0, 0)), (0, (1, 1))):
            entry = self.upper_triangle.get(ij, EntrySpec())
            _real_part(entry.offset.real, terms.get(ij, ()), sines, out[row, ...], scratch)
        # 0.0 - im, not -im: a zero offset.imag gives +0.0, as the matrix path does
        out[2] = 0.0 - self.upper_triangle.get((0, 1), EntrySpec()).offset.imag
        out[3] *= 0.5
        out[0] *= 0.5
        np.add(out[3], out[0], out=scratch)
        out[3] -= out[0]
        out[0] = scratch
        return out

    def sample_many(self, ts) -> Array:
        """Stack of Hamiltonians at times ``ts``, shape ``ts.shape + (dim, dim)``.

        The stack is written through its float64 view: first every constant
        part, broadcast over the times (zero for a missing entry, each
        offset's real part, ``0.0 + im`` above the diagonal and ``0.0 - (0.0
        + im)`` below it), then the real part of each entry with terms,
        summed from the model's sinusoid table (:meth:`_sinusoids`) into one
        scratch row and copied to its place in both triangles.  So each
        distinct sinusoid is evaluated once per time, and every sample is
        exactly Hermitian.
        """
        ts = np.asarray(ts, dtype=float)
        sines, terms = self._sinusoids(ts)
        d = self.dim
        constant = np.zeros((d, d), dtype=np.complex128)
        for (i, j), entry in self.upper_triangle.items():
            re, im = entry.offset.real + 0.0, 0.0 + entry.offset.imag
            constant[j, i] = complex(re, 0.0 - im)
            constant[i, j] = complex(re, im)
        h = np.empty(ts.shape + (d, d), dtype=np.complex128)
        h[...] = constant
        # entry (i, j)'s real part sits at [..., i, 2 j] of the float64 view
        parts = h.view(np.float64)
        value, scratch = np.empty(ts.shape), np.empty(ts.shape)
        for (i, j), entry in self.upper_triangle.items():
            if terms[i, j]:
                _real_part(entry.offset.real, terms[i, j], sines, value, scratch)
                parts[..., i, 2 * j] = value
                parts[..., j, 2 * i] = value
        return h


def _real_part(offset: float, terms, sines: Array, out: Array, scratch: Array) -> None:
    """One entry's real part into ``out``: ``offset + 0.0``, then each term's
    ``sines[row] * amplitude`` (formed in ``scratch``) added in term order.
    The sum never reads -0.0, so a term that reads a zero of either sign
    leaves it as it is."""
    out[...] = offset + 0.0
    for row, amplitude in terms:
        np.multiply(sines[row], amplitude, out=scratch)
        out += scratch


# Two-state sinusoidal model: diagonal (a1 sin(w1 t), 1 + a2 sin(w2 t)),
# off-diagonal coupling 1 + ac sin(wc t).  Parameters (a1, w1, a2, w2, ac, wc).
BUILTIN_CASES: dict[str, tuple[float, float, float, float, float, float]] = {
    "I": (1, 1, 1, 1, 1, 1),
    "II": (1, 2, 1, 1, 1, 1),
    "III": (1, 1, 1, 10, 1, 1),
    "IV": (1, 1, 1, 1, 1, 10),
}


def builtin_case(case_id: str) -> HamiltonianModel:
    """Builtin two-state model for case id I, II, III or IV."""
    key = str(case_id).strip().upper()
    if key not in BUILTIN_CASES:
        raise ModelError(f"unknown case {case_id!r}; valid cases: {', '.join(BUILTIN_CASES)}")
    a1, w1, a2, w2, ac, wc = BUILTIN_CASES[key]
    return HamiltonianModel(
        dim=2,
        upper_triangle={
            (0, 0): EntrySpec(0.0, (SinusoidTerm(a1, w1),)),
            (1, 1): EntrySpec(1.0, (SinusoidTerm(a2, w2),)),
            (0, 1): EntrySpec(1.0, (SinusoidTerm(ac, wc),)),
        },
    )


def _as_number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ModelError(f"{where}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        # JSON reads an integer literal exactly, and float() of one past the
        # float range raises
        value = math.inf
    if not math.isfinite(value):
        got = f"an integer of {len(str(abs(obj)))} digits" if isinstance(obj, int) else repr(obj)
        raise ModelError(f"{where}: expected a finite number, got {got}")
    return value


def _json_int(literal: str) -> int | float:
    """A JSON integer literal as an int, or as the float it reads (±inf) if
    it has more digits than Python converts to an int
    (``sys.get_int_max_str_digits``), so the check of its field reports it."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def load_model(config_text: str) -> HamiltonianModel:
    """Parse a JSON model config into a validated :class:`HamiltonianModel`.

    Schema::

        {"dim": int,
         "entries": [{"i": int, "j": int, "offset": [re, im],
                      "terms": [{"amp": real, "omega": real, "phase": real}]}]}

    Indices are 0-based with ``i <= j``; diagonal entries require ``im == 0``.
    """
    try:
        data = json.loads(config_text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ModelError("model config must be a JSON object")
    if "dim" not in data:
        raise ModelError("model config missing required field 'dim'")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ModelError(f"'dim' must be a positive integer, got {dim!r}")
    entries_raw = data.get("entries", [])
    if not isinstance(entries_raw, list):
        raise ModelError("'entries' must be a list")

    upper: dict[tuple[int, int], EntrySpec] = {}
    for k, raw in enumerate(entries_raw):
        where = f"entries[{k}]"
        if not isinstance(raw, dict):
            raise ModelError(f"{where}: expected an object")
        try:
            i, j = raw["i"], raw["j"]
        except KeyError as exc:
            raise ModelError(f"{where}: missing index field {exc.args[0]!r}") from exc
        for name, idx in (("i", i), ("j", j)):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise ModelError(f"{where}: index {name} must be an integer, got {idx!r}")
        if not (0 <= i <= j < dim):
            raise ModelError(f"{where}: indices ({i}, {j}) must satisfy 0 <= i <= j < dim={dim}")
        if (i, j) in upper:
            raise ModelError(f"{where}: duplicate entry for ({i}, {j})")

        offset_raw = raw.get("offset", [0.0, 0.0])
        if not (isinstance(offset_raw, list) and len(offset_raw) == 2):
            raise ModelError(f"{where}: 'offset' must be a [re, im] pair")
        re = _as_number(offset_raw[0], f"{where}.offset[0]")
        im = _as_number(offset_raw[1], f"{where}.offset[1]")
        if i == j and im != 0.0:
            raise ModelError(f"{where}: diagonal entry ({i}, {i}) must have a real offset, got im={im}")

        terms_raw = raw.get("terms", [])
        if not isinstance(terms_raw, list):
            raise ModelError(f"{where}: 'terms' must be a list")
        terms = []
        for m, term_raw in enumerate(terms_raw):
            twhere = f"{where}.terms[{m}]"
            if not isinstance(term_raw, dict):
                raise ModelError(f"{twhere}: expected an object")
            if "amp" not in term_raw or "omega" not in term_raw:
                raise ModelError(f"{twhere}: requires 'amp' and 'omega'")
            terms.append(
                SinusoidTerm(
                    amplitude=_as_number(term_raw["amp"], f"{twhere}.amp"),
                    angular_frequency=_as_number(term_raw["omega"], f"{twhere}.omega"),
                    phase=_as_number(term_raw.get("phase", 0.0), f"{twhere}.phase"),
                )
            )
        upper[(i, j)] = EntrySpec(complex(re, im), tuple(terms))

    return HamiltonianModel(dim=dim, upper_triangle=upper)
