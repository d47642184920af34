"""Declarative time-dependent Hermitian Hamiltonians built from sinusoids.

A model lists the upper triangle of the matrix; every entry is a constant
offset plus a sum of ``amp * sin(omega * t + phase)`` terms.  The lower
triangle is always the conjugate of the upper one, so sampling at any time
yields a Hermitian matrix by construction.  The four builtin two-state
parameter cases drive the bundled convergence experiments.

A two-level model also gives its samples as the real su(2) coordinates the
step builders take (:meth:`HamiltonianModel.su2_coordinates`), computed from
the entries' real parts (:meth:`EntrySpec.real_value`) and the coupling's
constant imaginary part, in real arithmetic: the same floats as
``linalg.su2_coordinates`` of :meth:`HamiltonianModel.sample_many`, without
the complex matrices.  The evolution driver samples a two-level model that
way, each grid time once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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

    def value(self, t):
        """Entry value at time(s) ``t`` (scalar or array)."""
        return self.real_value(t) + complex(0.0, self.offset.imag)

    def real_value(self, t):
        """Real part of the entry at time(s) ``t``: the offset's real part plus
        the sinusoids, in real arithmetic.  The imaginary part is the constant
        ``offset.imag``, since the amplitudes are real.  Each sinusoid is
        evaluated in place in one scratch array."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.offset.real + 0.0)
        scratch = np.empty_like(out)
        for term in self.terms:
            np.multiply(term.angular_frequency, t, out=scratch)
            scratch += term.phase
            np.sin(scratch, out=scratch)
            scratch *= term.amplitude
            out += scratch
        return out


@dataclass(frozen=True)
class HamiltonianModel:
    """Hermitian matrix model; ``upper_triangle`` maps ``(i, j)`` with ``i <= j``."""

    dim: int
    upper_triangle: dict[tuple[int, int], EntrySpec] = field(default_factory=dict)

    def __post_init__(self):
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

    def su2_coordinates(self, ts) -> Array:
        """su(2) coordinates of a two-level model at times ``ts``: the real,
        component-major ``(4,) + ts.shape`` array ``(c, x, y, z)`` of ``H = c I
        + x sx + y sy + z sz``, as ``linalg.su2_coordinates`` gives them of
        :meth:`sample_many`, with the same floats.

        ``c = h00/2 + h11/2``, ``x = re h01``, ``y = -im h01`` (the coupling's
        constant ``offset.imag``) and ``z = h00/2 - h11/2``, from the entries'
        real values: no complex matrix is built, and every entry is halved
        before two are added, so no finite entry overflows them.  Row 3 holds
        ``h00/2`` until ``c`` is formed, so at most one entry's values and
        their scratch array are held beside the result.
        """
        if self.dim != 2:
            raise ModelError(f"su(2) coordinates need a two-level model, got dim {self.dim}")
        ts = np.asarray(ts, dtype=float)
        e00, e11, coupling = (self.upper_triangle.get(ij) for ij in ((0, 0), (1, 1), (0, 1)))
        out = np.empty((4,) + ts.shape)
        out[1] = 0.0 if coupling is None else coupling.real_value(ts)
        # 0.0 - im, not -im: a zero offset.imag gives +0.0, as the matrix path does
        out[2] = 0.0 if coupling is None else 0.0 - coupling.offset.imag
        out[3] = 0.0 if e00 is None else e00.real_value(ts)
        out[3] *= 0.5
        h11 = 0.0 if e11 is None else e11.real_value(ts)
        h11 *= 0.5
        out[0] = out[3] + h11
        out[3] -= h11
        return out

    def sample_many(self, ts) -> Array:
        """Stack of Hamiltonians at times ``ts``, shape ``ts.shape + (dim, dim)``."""
        ts = np.asarray(ts, dtype=float)
        h = np.zeros(ts.shape + (self.dim, self.dim), dtype=np.complex128)
        for (i, j), entry in self.upper_triangle.items():
            v = entry.value(ts)
            h[..., i, j] += v
            if i != j:
                h[..., j, i] += np.conj(v)
        return h


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


def load_model(config_text: str) -> HamiltonianModel:
    """Parse a JSON model config into a validated :class:`HamiltonianModel`.

    Schema::

        {"dim": int,
         "entries": [{"i": int, "j": int, "offset": [re, im],
                      "terms": [{"amp": real, "omega": real, "phase": real}]}]}

    Indices are 0-based with ``i <= j``; diagonal entries require ``im == 0``.
    """
    try:
        data = json.loads(config_text)
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
