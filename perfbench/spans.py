"""Spans around the calls one magstep module makes into another, and the
per-module metrics derived from them.

Nothing inside magstep is edited: ``Tracer.install`` rebinds the public
names that callers look up (for example ``magstep.evolution.exponent``, the
name ``propagate`` uses) to wrappers that record a span, and ``uninstall``
puts the originals back.  A span's self time is its duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Per-module metrics, in BENCHMARK.json order, with their units.
LAYER_METRICS = {
    "hamiltonians.sample_s": "s",
    "hamiltonians.matrices_sampled": "count",
    "magnus_steps.exponent_s": "s",
    "magnus_steps.commutator_calls": "count",
    "magnus_steps.commutator_matrices": "count",
    "linalg.expm_s": "s",
    "linalg.expm_matrices": "count",
    "evolution.propagate_self_s": "s",
    "evolution.propagate_calls": "count",
    "evolution.steps": "count",
    "evolution.prefix_useful_ratio": "ratio",
    "evolution.array_bytes": "B",
    "verify.oracle_m1_s": "s",
    "verify.oracle_m2_s": "s",
    "verify.oracle_m3_s": "s",
    "verify.oracle_m4_s": "s",
    "verify.oracle_calls": "count",
    "verify.step_s": "s",
    "verify.step_calls": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
}

ROOT = "cli.run"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrices(a) -> int:
    a = np.asarray(a)
    return a.size // (a.shape[-1] * a.shape[-1])


def _trace_bytes(result) -> int:
    # the accumulated prefixes are not returned; their size follows from the
    # final propagator and the number of grid points
    n_points = len(result.times)
    return (result.times.nbytes + result.populations.nbytes + result.unitarity_defects.nbytes
            + n_points * result.final_propagator.nbytes)


# (owner, attribute, span name, attrs(args, result)) for every rebound name.
# The attrs functions read positional arguments, which is how magstep's own
# callers pass them.
def _targets():
    from magstep import cli, evolution, hamiltonians, magnus_steps, verify

    def sampled(args, out):
        return {"matrices": int(np.size(args[1])), "bytes": out.nbytes}

    def propagated(args, out):
        n = int(args[4])
        return {"steps": n, "prefixes": n + 1, "bytes": _trace_bytes(out)}

    return [
        (hamiltonians.HamiltonianModel, "sample_many", "hamiltonians.sample_many", sampled),
        (evolution, "exponent", "magnus_steps.exponent", lambda a, out: {"bytes": out.nbytes}),
        (evolution, "expm_antihermitian", "linalg.expm_antihermitian",
         lambda a, out: {"matrices": _matrices(out), "bytes": out.nbytes}),
        (evolution, "propagate", "evolution.propagate", propagated),
        (evolution, "relative_error", "evolution.relative_error", None),
        (magnus_steps, "commutator", "magnus_steps.commutator",
         lambda a, out: {"matrices": _matrices(out)}),
        (verify, "oracle_Mn", "verify.oracle_Mn", lambda a, out: {"n": int(a[1])}),
        (verify, "step", "verify.step", None),
        (cli, "propagate", "evolution.propagate", propagated),
        (cli, "convergence_study", "evolution.convergence_study", None),
        (cli, "check_closed_forms", "verify.check_closed_forms", None),
        (cli, "check_symmetry_suite", "verify.check_symmetry_suite", None),
    ]


class Tracer:
    """Records a tree of spans for one op at a time, in memory."""

    def __init__(self):
        self._targets = _targets()
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._targets]
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, out)
            return out

        return traced

    def install(self) -> None:
        for (owner, attr, name, attrs_of), fn in zip(self._targets, self._originals):
            setattr(owner, attr, self._wrap(fn, name, attrs_of))

    def uninstall(self) -> None:
        for (owner, attr, _, _), fn in zip(self._targets, self._originals):
            setattr(owner, attr, fn)

    def run_op(self, call):
        """Run ``call()`` as one root span; return its result and the op's spans."""
        self.spans, self._stack = [], []
        out = self._wrap(call, ROOT, None)()
        return out, self.spans


def layer_metrics(spans: list[Span], csv_bytes: int, useful_prefixes: int | None) -> dict[str, float]:
    """Per-module metrics of one traced op.

    ``useful_prefixes`` is the number of accumulated propagators that reach the
    output; ``None`` means one per ``propagate`` call (only the final
    propagator is read).
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    for span in spans:
        total[span.name] += span.duration
        self_time[span.name] += span.duration
        calls[span.name] += 1
        if span.parent >= 0:
            self_time[spans[span.parent].name] -= span.duration
        for key, value in span.attrs.items():
            attr[span.name, key] += value
    oracle = defaultdict(float)
    for span in spans:
        if span.name == "verify.oracle_Mn":
            oracle[span.attrs["n"]] += span.duration

    prefixes = attr["evolution.propagate", "prefixes"]
    useful = calls["evolution.propagate"] if useful_prefixes is None else useful_prefixes
    array_bytes = sum(
        attr[name, "bytes"]
        for name in ("hamiltonians.sample_many", "magnus_steps.exponent",
                     "linalg.expm_antihermitian", "evolution.propagate")
    )
    return {
        "hamiltonians.sample_s": total["hamiltonians.sample_many"],
        "hamiltonians.matrices_sampled": attr["hamiltonians.sample_many", "matrices"],
        "magnus_steps.exponent_s": total["magnus_steps.exponent"],
        "magnus_steps.commutator_calls": calls["magnus_steps.commutator"],
        "magnus_steps.commutator_matrices": attr["magnus_steps.commutator", "matrices"],
        "linalg.expm_s": total["linalg.expm_antihermitian"],
        "linalg.expm_matrices": attr["linalg.expm_antihermitian", "matrices"],
        "evolution.propagate_self_s": self_time["evolution.propagate"],
        "evolution.propagate_calls": calls["evolution.propagate"],
        "evolution.steps": attr["evolution.propagate", "steps"],
        "evolution.prefix_useful_ratio": useful / prefixes if prefixes else 0.0,
        "evolution.array_bytes": array_bytes,
        **{f"verify.oracle_m{n}_s": oracle[n] for n in (1, 2, 3, 4)},
        "verify.oracle_calls": calls["verify.oracle_Mn"],
        "verify.step_s": total["verify.step"],
        "verify.step_calls": calls["verify.step"],
        "cli.self_s": self_time[ROOT],
        "cli.csv_bytes": csv_bytes,
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: float(statistics.median(m[name] for m in per_op)) for name in LAYER_METRICS}
