"""Compose step propagators over an interval and run convergence studies.

The step pipeline streams over fixed-size chunks of one or more uniform
grids over the same interval: :func:`_step_chunks` samples, builds and
exponentiates one chunk of steps at a time (all step exponents of a
chunk in one broadcasted ``magnus_steps._theta`` call, then one batched
``linalg._expm``, the one exponential dispatch), the same per-step
arithmetic as :func:`magstep.magnus_steps.step`.  The exponential is the
closed su(2) form at d = 2, and gives each step's propagator in
Cayley-Klein form, the float64 row (re alpha - 1, im alpha, re beta, im
beta, phi) of ``U = e^{-i phi} [[alpha, -conj(beta)], [beta,
conj(alpha)]]``: every tree level, prefix and carry of a two-level run
stays a stack of such rows, and its 2x2 matrix is formed only for the final
propagators (``linalg._propagator_matrix``).  Above, each step whose Theta
has 1-norm at most ``linalg.TAYLOR_NORM_CUT`` (about 1.1025) takes a
Taylor polynomial, of the lowest degree of ``linalg.TAYLOR_DEGREES`` (6, 9,
12, 16 or 18) whose remainder at that norm is below half a unit roundoff,
so it is unitary to rounding; each step above the top cut takes the
eigendecomposition.  A
chunk whose steps span these tiers is split between their kernels, and each
step gets the bits it gets alone.  A chunk's stacks take
``CHUNK_BYTES`` each, so besides its outputs a run holds the same memory at
any step count.  A chunk's working set is its node samples, replaced one by
one by their generators (one stack per node); the builder's brackets and
sums, at most six stacks more (``blanes6-gauss``), which it drops once
spent; then Theta and the exponential's stacks: three for the
eigendecomposition at d > 2, the output and at most six blocks of 256 KiB
for the Taylor polynomial.
``propagate`` releases each chunk's step propagators and prefixes before
the next chunk is built.  Two d = 8 chunks of a trajectory peak at 4.17 MiB
(``me2``) to 12.3 MiB (``me6``) above what was held before, as traced by
``tracemalloc``.  A convergence ladder is run as a list of runs, ``(method,
step count)`` each, every method's rungs in one pass: the runs share chunks
(:func:`_packed`), so the ladder takes one pass per chunk, not one per rung
or per method.  A chunk groups its pieces by method; each group's Theta,
built with a per-step ``dt`` where it holds more than one grid, is written
into the chunk's one Theta, which takes one exponential and one product
tree.  Every step gets the same floats as on its grid, by its method, alone.

Each chunk samples the Hamiltonian once per time it needs: runs of one step
count share their grid and node times (:func:`_node_samples`).  A scheme
whose nodes include both ends of the step (``me2``, ``me3``, ``me4-*``,
``me6``, ``blanes4``) reads each grid time ``t0 + dt * j``, sampled once,
since step k's end is step k + 1's start: node 0 reads all but the last of
a piece's grid samples and node 1 all but the first (:func:`_reads`).  So
``me3``, ``me4-nc`` and ``blanes4`` on one n-step rung take 2n + 1 samples
together, as one of them alone does.  At d = 2 a chunk samples all its
times in one call.

The driver knows what it samples, so it alone picks the path.  A
:class:`HamiltonianModel` is Hermitian by construction: its samples, at any
d, go to the step builders unchecked, and a two-level model gives them as
the real su(2) coordinates the builders take
(``HamiltonianModel.su2_coordinates``), from its entries in real
arithmetic, so no complex stack is built for it.  A callable sampler's
complex matrix stacks get one Hermiticity check per sampling call, which
measures each matrix on its own, by the function that checks ``exponent``'s
samples; so each sample is checked once, however many methods read it, and
a bad one is named by the node at which the first method to read it does.
Theta is the library's own output and is exponentiated unchecked, from its
coordinates at d = 2.  A model's sample that is not
finite (a sinusoid past the float range) is a :class:`PreconditionError`
raised where it is sampled; a callable's is the ``ValueError`` of its
check.  On a grid whose times ``t0 + dt * j`` are exact the step ends are
the same floats as ``step start + dt``; elsewhere they can differ by
rounding.

A trajectory records the populations and the unitarity defect of the
propagator at every grid point.  Both drivers multiply a chunk's step
propagators up one pairwise product tree (:func:`_tree_levels`), one batched
product per level: ceil(log2 n) for a chunk whose longest piece has n steps
(10 for the 1024-step rung of the benchmark ladder).  ``propagate`` walks the
levels back down from the propagator carried from the chunk before, one
batched product per level, to every prefix of the step product, later steps
on the left (:func:`_prefixes`).  The convergence harness needs only final
propagators, with no prefixes, populations or defects: it reduces all the
pieces of a chunk, of every method's rungs, up the same tree together and
keeps its top level.  ``propagate`` and the harness each multiply a
piece's product onto the product of its run's pieces before it, so they
give a grid the same final propagator, bit for bit.  The harness measures
the relative Frobenius error of each scheme's final propagator against a
reference computed by the 6th-order scheme on a much finer grid,
cross-checked against an independent 6th-order scheme before it is
trusted, and fits the log-log order of
accuracy per method.  Every product of propagator stacks goes through
``linalg._product``, which multiplies Cayley-Klein rows at d = 2 (their
angles adding) and is numpy's ``@`` above, and every tree and down-sweep
starts from ``linalg._identity`` in the same form, so the tree, the
prefixes and the final-only reduction are one code path at every d.
``linalg._observables`` reads a chunk's populations and unitarity defects
off its prefixes: at d = 2 ``|alpha a - conj(beta) b|**2``, ``|beta a +
conj(alpha) b|**2`` for ``psi0 = (a, b)``, and ``sqrt(2) ||alpha|**2 +
|beta|**2 - 1|``, which the phase, exactly unitary, does not enter.

``propagate`` and ``convergence_study`` are where the driver's inputs are
checked: each input once, before anything is sampled, in this order.
``propagate`` checks that the method is a :class:`MethodId`, the state's
normalization, ħ, the interval, ``n_steps``, the size preflight
(:func:`_checked_size`) and then a model's dimension against the state's.
``convergence_study`` checks ħ, the interval, the methods (a sequence of
:class:`MethodId`, at least one, none twice), the ladder and its step
counts, then takes a callable's dimension probe, then makes the size
preflight on the reference grid, the largest it runs.  A method that is not
a :class:`MethodId`, its name included, is a ``TypeError`` naming the
argument and listing the valid methods.  ħ and the interval are checked together, ħ
first, by :func:`_checked_span`: ``ValueError`` for an ħ that is not
positive and finite (``magnus_steps._checked_hbar``) and for a non-finite
``t0``, ``tf`` or ``tf - t0``, :class:`PreconditionError` unless ``tf >
t0``.  ``propagate``'s ``n_steps`` must be an integer (``TypeError``
naming it otherwise, as for ``10.5``, ``"4"`` or ``None``; a numpy integer
is taken as its ``int``) of at least 1.  ħ is the plain ``hbar`` keyword,
handed on to ``magnus_steps._theta``, which reads it.  :func:`_step_chunks`
and :func:`_final_propagators` trust what they are handed, and :func:`_sampled`
checks only what sampling produces.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .hamiltonians import HamiltonianModel
from .linalg import Array, PreconditionError, _expm, _identity, _observables, _product, _propagator_matrix, frobenius_norm
from .magnus_steps import _SCHEMES, MethodId, _checked_hbar, _checked_method, _hermitian, _theta

# not called here: the benchmark's tracer (perfbench/spans.py) wraps these names
from .linalg import expm_antihermitian  # noqa: F401
from .magnus_steps import exponent  # noqa: F401

__all__ = [
    "EvolutionTrace",
    "ConvergenceRecord",
    "ConvergenceReport",
    "DEFAULT_LADDER_STEP_COUNTS",
    "default_ladder",
    "propagate",
    "relative_error",
    "fit_order",
    "convergence_study",
]

# Step-count ladder of the bundled experiments: successive halvings of the
# step from t_f/512 down to t_f/16384.
DEFAULT_LADDER_STEP_COUNTS: tuple[int, ...] = (16384, 8192, 4096, 2048, 1024, 512)

# The reference propagator of a convergence study: the 6th-order scheme on a
# grid 8x finer than the finest ladder rung, trusted only if the independent
# 6th-order scheme on the same grid agrees with it to REFERENCE_AGREEMENT_TOL
# relative.
REFERENCE_METHOD = MethodId.ME6
CROSS_CHECK_METHOD = MethodId.BLANES6_GAUSS
REFERENCE_REFINEMENT = 8
REFERENCE_AGREEMENT_TOL = 1e-8

# Largest |‖psi0‖ - 1| accepted for an initial state.
STATE_NORM_TOL = 1e-12

# Errors at or above this are outside the asymptotic regime of a slope fit.
FIT_ERROR_CEILING = 0.05

_DIVISIBILITY_RTOL = 1e-9

# Bytes of one complex (chunk, d, d) stack: the step pipeline runs over
# chunks of CHUNK_BYTES // (16 d**2) steps, 16384 at d = 2 and 1024 at d = 8,
# so what it holds besides the outputs does not grow with the step count.
# At d = 2 a chunk's step propagators are Cayley-Klein rows, 40 bytes a step.
CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class EvolutionTrace:
    """Grid times, per-time populations and unitarity defects, final propagator."""

    times: Array
    populations: Array
    unitarity_defects: Array
    final_propagator: Array


def _sampled(model, times: Array, dim: int, spans: list[tuple[float, int, int]]) -> Array:
    """The Hamiltonian at ``times``: the ``(4, n)`` su(2) coordinates of a
    two-level :class:`HamiltonianModel`, else the complex ``(n, dim, dim)``
    stack.  Checks only what sampling produces: raises
    :class:`PreconditionError`, naming the time and both shapes, for the
    first sample of a callable that is not ``dim`` by ``dim``, checked as it
    is taken, and if a model's sample is not finite: a valid model whose
    sinusoids pass the float range, sampled under one ``np.errstate`` so that
    numpy adds no warning to that one error.  A model's dimension is checked
    by the entry point, once.  Then a callable's stack gets its one sample
    check, ``magnus_steps._hermitian``, which names the node of the first of
    ``spans``, ``(node, a, b)`` for the node that reads entries ``a ... b -
    1``, that holds a failing matrix; a model's samples, Hermitian by
    construction, get none."""
    if isinstance(model, HamiltonianModel):
        with np.errstate(over="ignore", invalid="ignore"):
            h = model.su2_coordinates(times) if dim == 2 else model.sample_many(times)
        if not np.logical_and.reduce(np.isfinite(h), axis=None):
            # the time axis is last for coordinates, first for matrices
            finite = np.logical_and.reduce(np.isfinite(h), axis=0 if dim == 2 else (1, 2))
            t = float(times[np.argmin(finite)])
            raise PreconditionError(f"the model overflows the float range: its sample at t={t!r} is not finite")
        return h
    h = np.empty((len(times), dim, dim), dtype=np.complex128)
    for k, t in enumerate(times.tolist()):
        sample = np.asarray(model(t), dtype=np.complex128)
        if sample.shape != (dim, dim):
            raise PreconditionError(f"Hamiltonian samples must be {(dim, dim)}, got {sample.shape} at t={t!r}")
        h[k] = sample
    return _hermitian(h, spans)


def _node_samples(model, t0: float, keys: list[tuple], dim: int) -> dict[tuple, Array]:
    """The Hamiltonian sampled for each ``(dt, start, stop, node)`` of
    ``keys``, in order: at the node times ``step start + node * dt`` of steps
    ``start ... stop - 1`` of the uniform grid ``t0 + dt * j``, or, for
    ``node`` None, at that piece's grid times, ``j = start ... stop``.  The
    times depend on the key alone, so runs over one grid share them, and
    they are the floats the grid's pieces get alone.  At d = 2 all the keys'
    times are sampled in one call and each key gets a view of the result;
    above, each key's times are sampled in a call of their own, so that each
    stack can be dropped once the last method that reads it has its
    generators.  Nothing here is checked but what :func:`_sampled` checks,
    and each of a callable's samples is checked there once, whichever
    methods read it.  A bad sample is named by the node at which the first
    method that reads its key reads it: the key's node, or for grid times
    node 0 unless the piece's last grid time alone fails, which node 1
    alone reads; of several keys with bad samples, the first sampled.
    """
    # each piece's step starts, built once for all its nodes
    step_starts = functools.cache(lambda dt, start, stop: t0 + dt * np.arange(start, stop))

    def filled(key: tuple, out: Array) -> Array:
        dt, start, stop, node = key
        if node is None:
            return np.add(t0, dt * np.arange(start, stop + 1), out=out)
        return np.add(step_starts(dt, start, stop), node * dt, out=out)

    lengths = [stop - start + (node is None) for _, start, stop, node in keys]
    # (node, a, b) for each node that reads entries a ... b - 1 of a key's
    # samples: a grid's node 0 reads all but the last, node 1 all but the
    # first (_reads)
    spans = [[(node, 0, n)] if node is not None else [(0.0, 0, n - 1), (1.0, 1, n)] for (*_, node), n in zip(keys, lengths)]
    if dim > 2:
        return {key: _sampled(model, filled(key, np.empty(n)), dim, s) for key, n, s in zip(keys, lengths, spans)}
    edges = list(itertools.pairwise(itertools.accumulate(lengths, initial=0)))
    times = np.empty(edges[-1][1])
    for key, (a, b) in zip(keys, edges):
        filled(key, times[a:b])
    # each key's spans, shifted to where its samples sit in the one stack
    h = _sampled(model, times, dim, [(node, lo + a, lo + b) for (lo, _), s in zip(edges, spans) for node, a, b in s])
    return {key: _steps(h, slice(a, b)) for key, (a, b) in zip(keys, edges)}


def _steps(a: Array, steps: slice) -> Array:
    """The entries ``steps`` of a stack along its step axis: the last of su(2)
    coordinates, the first of matrices."""
    return a[:, steps] if a.dtype == np.float64 else a[steps]


def _joined(parts: list[Array]) -> Array:
    """One stack of ``parts`` along their step axis, the part itself if one."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1 if parts[0].dtype == np.float64 else 0)


def _reads(method: MethodId, pieces: list[tuple[float, int, int]]) -> list[list[tuple[tuple, slice]]]:
    """For each node of ``method``, in node order, the ``(key, steps)`` of
    :func:`_node_samples` each of ``pieces``, ``(dt, start, stop)``, reads
    for it.  A scheme with nodes at both ends of the step (``me2``, ``me3``,
    ``me4-*``, ``me6``, ``blanes4``) reads each piece's grid samples for
    them, node 0 all but the last and node 1 all but the first, since step
    k's end is step k + 1's start; its other nodes, like every node of the
    other schemes, read the samples at that node's times."""
    nodes = _SCHEMES[method][0]
    shared = nodes[0] == 0.0 and nodes[-1] == 1.0
    reads = []
    for node in nodes:
        if shared and node in (0.0, 1.0):
            steps = slice(0, -1) if node == 0.0 else slice(1, None)
            reads.append([((dt, start, stop, None), steps) for dt, start, stop in pieces])
        else:
            reads.append([((dt, start, stop, node), slice(None)) for dt, start, stop in pieces])
    return reads


def _trajectory_bytes(n_steps: int, dim: int) -> int:
    """Bytes of the arrays of a trajectory that grow with the step count: its
    times, populations and unitarity defects, ``n_steps + 1`` rows of
    ``dim + 2`` float64 values."""
    return (int(n_steps) + 1) * (dim + 2) * 8


def _physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _checked_size(n_steps: int, dim: int) -> None:
    """:class:`PreconditionError` naming ``n_steps`` unless a trajectory of
    ``n_steps`` at ``dim`` (:func:`_trajectory_bytes`) fits in the smaller of
    physical memory, where ``os.sysconf`` can tell it, and the bytes this
    platform can address.  A convergence study builds no trajectory, but its
    reference grid takes the same bound, so no rung's steps outgrow an
    array's index."""
    need = _trajectory_bytes(n_steps, dim)
    limit, what = np.iinfo(np.intp).max, "address space"
    memory = _physical_memory_bytes()
    if memory is not None and memory < limit:
        limit, what = memory, "physical memory"
    if need > limit:
        raise PreconditionError(
            f"n_steps=10^{math.log10(int(n_steps)):.2f} is too large: a trajectory of its "
            f"n_steps + 1 grid points, at {dim + 2} floats each, takes about "
            f"{need / 2**30:.3g} GiB, more than the {limit / 2**30:.3g} GiB of {what}"
        )


def _checked_span(t0: float, tf: float, hbar: float) -> float:
    """``tf - t0``, once ħ is checked (``magnus_steps._checked_hbar``):
    ``ValueError`` unless ``tf - t0``, ``t0`` and ``tf`` are finite, and
    :class:`PreconditionError` unless ``tf > t0``."""
    _checked_hbar(hbar)
    if not math.isfinite(tf - t0):
        raise ValueError(f"t0, tf and tf - t0 must be finite, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise PreconditionError(f"tf must exceed t0, got t0={t0}, tf={tf}")
    return tf - t0


def _step_chunks(
    runs: Sequence[tuple[MethodId, int]], model, t0: float, tf: float, dim: int, hbar: float = 1.0
) -> Iterator[tuple[list[tuple[int, int, int]], Array]]:
    """``(pieces, u)`` for each chunk of the steps of ``runs``, ``(method,
    count)`` each: ``method`` over the uniform grid of ``count`` steps over
    ``[t0, tf]``.  ``pieces`` are the chunk's ``(run, start, stop)`` from
    :func:`_packed`, and ``u`` holds the step propagators of steps ``start
    ... stop - 1`` of each piece's run, piece after piece.

    The runs' steps are packed into chunks of at most ``CHUNK_BYTES // (16
    dim**2)`` steps, each built only when it is reached, so no ``(n, d, d)``
    stack outlives its chunk.  A chunk's pieces are grouped by method, in
    the order each method first appears, and ``pieces`` lists them in that
    order.  The chunk samples each time it needs once
    (:func:`_node_samples`), and a callable's samples are checked there,
    once: runs of one count share their grid.  Each group then gets its node
    stacks (:func:`_reads`), each stack dropped after the last group that
    reads it, and checks none of them again.  The group's Theta,
    built by ``magnus_steps._theta`` with a scalar ``dt`` for one piece and a
    per-step one for more, is written into the chunk's one Theta, which
    takes one ``linalg._expm`` call.  A chunk of one group takes its Theta
    as it is.  Nothing here is checked: the methods, ``hbar``, the interval,
    the counts and ``dim`` are the entry point's, and only what sampling
    produces is checked as it is sampled.  A piece's times, samples,
    generators, Theta and exponential are the floats of its run alone.
    """
    dts = [(tf - t0) / n for _, n in runs]

    def chunk(pieces: list[tuple[int, int, int]]) -> tuple[list[tuple[int, int, int]], Array]:
        groups: dict[MethodId, list[tuple[int, int, int]]] = {}
        for piece in pieces:
            groups.setdefault(runs[piece[0]][0], []).append(piece)
        pieces = [piece for members in groups.values() for piece in members]
        reads = [_reads(method, [(dts[run], start, stop) for run, start, stop in members]) for method, members in groups.items()]
        # the last group that reads each key; inner nodes' times first, then the grids
        last = {key: i for i, parts in enumerate(reads) for node in parts for key, _ in node}
        stacks = _node_samples(model, t0, sorted(last, key=lambda key: key[3] is None), dim)
        theta, offset = None, 0
        if len(groups) > 1:
            n = sum(stop - start for _, start, stop in pieces)
            theta = np.empty((4, n)) if dim == 2 else np.empty((n, dim, dim), dtype=np.complex128)
        for i, ((method, members), parts) in enumerate(zip(groups.items(), reads)):
            samples = [_joined([_steps(stacks[key], steps) for key, steps in node]) for node in parts]
            for key in {key for node in parts for key, _ in node if last[key] == i}:
                del stacks[key]
            # a run has one piece in a chunk at most: one piece takes its
            # run's dt, more a per-step dt
            dt = dts[members[0][0]]
            if len(members) > 1:
                dt = np.concatenate([np.full(stop - start, dts[run]) for run, start, stop in members])
            # _theta replaces each sample by its generator, so no node is held twice
            group = _theta(method, samples, dt, hbar)
            del samples
            if theta is None:
                return pieces, _expm(group)
            k = sum(stop - start for _, start, stop in members)
            _steps(theta, slice(offset, offset + k))[...] = group
            offset += k
            del group
        return pieces, _expm(theta)

    width = max(1, CHUNK_BYTES // (16 * dim**2))
    # map keeps no chunk it has returned, unlike a generator expression's
    # loop variable, so a chunk can be freed before the next one is built
    return map(chunk, _packed([n for _, n in runs], width))


def _packed(counts: Sequence[int], width: int) -> Iterator[list[tuple[int, int, int]]]:
    """The ``(run, start, stop)`` pieces of each chunk of at most ``width``
    steps, for runs over grids of ``counts`` steps packed in order.

    A run of at most ``width`` steps joins the open chunk if it fits there
    and starts a new one otherwise, so it is never split.  A longer run is
    cut at multiples of ``width`` from its own start: each full piece is a
    chunk of its own, and the rest starts a new chunk.  A run's pieces are
    the same whatever runs it is packed with.
    """
    pieces, filled = [], 0
    for run, n in enumerate(counts):
        n = int(n)
        if filled + min(n, width) > width:
            yield pieces
            pieces, filled = [], 0
        tail = n - n % width if n > width else 0
        for start in range(0, tail, width):
            yield [(run, start, start + width)]
        if tail < n:
            pieces.append((run, tail, n))
            filled += n - tail
    if pieces:
        yield pieces


def _tree_levels(u: Array, lengths: list[int]) -> Iterator[Array]:
    """The levels of the pairwise product tree over each piece of ``u``, of
    ``lengths`` steps each, piece after piece: ``u`` itself, then each level's
    neighbouring pairs multiplied in one batched product, later steps on the
    left, until every piece is one product.

    ``u`` is a stack of matrices, or of Cayley-Klein rows at d = 2; every
    product is ``linalg._product``.  Before each product an identity in the
    form of ``u`` (``linalg._identity``) is appended to every piece of odd
    length, so that no pair crosses a piece boundary; ``I x`` has the values
    of ``x``, so an odd trailing factor is carried up unchanged.  A
    level is yielded without these identities.  A chunk whose longest piece
    has n steps takes ceil(log2 n) batched products.
    """
    identity = _identity(u)[None]
    yield u
    while max(lengths) > 1:
        if any(n % 2 for n in lengths):
            parts, start = [], 0
            for n in lengths:
                parts.append(u[start:start + n])
                if n % 2:
                    parts.append(identity)
                start += n
            u = np.concatenate(parts)
            lengths = [n + n % 2 for n in lengths]
        u = _product(u[1::2], u[0::2])
        lengths = [n // 2 for n in lengths]
        yield u


def _prefixes(u: Array, carry: Array) -> Array:
    """The ``n + 1`` prefixes ``carry, u[0] carry, u[1] u[0] carry, ...`` of
    ``n`` step propagators, later steps on the left.

    ``carry`` is the propagator at the first step's start, in the form of
    ``u``: the identity for the first chunk of a grid, the last prefix of the
    chunk before for each later one.  A down-sweep of the tree of
    :func:`_tree_levels` (Blelloch, "Prefix sums and their applications",
    1990): each level's element 2i
    takes its parent's prefix, the product of every step before it, and
    element 2i + 1 takes ``level[2i]`` times that prefix, one batched product
    per level, each level dropped once it is used.  The last prefix is the
    tree's root times ``carry``, as :func:`_final_propagators` multiplies a
    chunk's product onto the chunks before it, so both give a grid the same
    final propagator.
    """
    *levels, root = _tree_levels(u, [len(u)])
    # each level's prefixes and one row more, filled only at the bottom, by
    # the last prefix; the root's one prefix is carry
    prefixes = np.empty((2, *carry.shape), dtype=u.dtype)
    prefixes[0] = carry
    while levels:
        level = levels.pop()
        n = len(level)
        parent, prefixes = prefixes, np.empty((n + 1, *carry.shape), dtype=u.dtype)
        prefixes[0:n:2] = parent[:(n + 1) // 2]
        _product(level[0:n - 1:2], parent[:n // 2], out=prefixes[1:n:2])
        del level, parent
    prefixes[-1] = _product(root[0], carry)
    return prefixes


def propagate(
    method: MethodId,
    model,
    t0: float,
    tf: float,
    n_steps: int,
    initial_state,
    hbar: float = 1.0,
) -> EvolutionTrace:
    """Evolve from ``t0`` to ``tf`` in ``n_steps`` uniform steps.

    ``model`` is a :class:`HamiltonianModel` or any callable ``t -> matrix``.
    Populations are ``|<n|U(t)|psi0>|^2`` from the accumulated propagator
    applied to the initial state, never re-normalized; at d = 2 from its
    Cayley-Klein form, and the final propagator is its 2x2 matrix.  Each
    chunk's propagators U(t) come from the down-sweep of its product tree
    (:func:`_prefixes`), so the final one equals what
    :func:`_final_propagators` gives the grid, bit for bit.  Checks, before
    anything is sampled: that ``method`` is a :class:`MethodId`
    (``TypeError`` otherwise), the state's normalization, ``hbar``, the
    interval, ``n_steps`` (``TypeError`` unless an integer), that the
    outputs, which grow with ``n_steps``, fit in memory
    (:func:`_checked_size`), and a model's dimension.
    """
    _checked_method(method)
    psi0 = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise PreconditionError(f"initial state must be normalized, got norm {norm!r}")
    dim = psi0.size
    span = _checked_span(t0, tf, hbar)
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise TypeError(f"n_steps must be an integer, got {n_steps!r}") from None
    if n_steps < 1:
        raise PreconditionError(f"n_steps must be positive, got {n_steps}")
    _checked_size(n_steps, dim)
    if isinstance(model, HamiltonianModel) and model.dim != dim:
        raise PreconditionError(f"initial state has length {dim}; Hamiltonian samples must be ({dim}, {dim}), got {(model.dim, model.dim)}")

    times = t0 + span / n_steps * np.arange(n_steps + 1)
    populations = np.empty((n_steps + 1, dim))
    defects = np.empty(n_steps + 1)
    carry = None
    for [(_, start, _)], u in _step_chunks([(method, n_steps)], model, t0, tf, dim, hbar):
        prefixes = _prefixes(u, _identity(u) if carry is None else carry)
        rows = slice(start, start + len(prefixes))
        populations[rows], defects[rows] = _observables(prefixes, psi0)
        # a copy, not a view that would keep every prefix alive; both stacks
        # are released before the next chunk is built
        carry = prefixes[-1].copy()
        del u, prefixes
    return EvolutionTrace(
        times=times,
        populations=populations,
        unitarity_defects=defects,
        final_propagator=_propagator_matrix(carry),
    )


def _final_propagators(
    runs: Sequence[tuple[MethodId, int]], model, t0: float, tf: float, dim: int, hbar: float = 1.0
) -> list[Array]:
    """U(tf) alone of each run of ``runs``, ``(method, count)`` each:
    ``method``'s step propagators over the grid of ``count`` steps over
    ``[t0, tf]``, multiplied pairwise, later steps on the left.

    All pieces of a chunk (see :func:`_step_chunks`), whatever their
    methods, are reduced together, one batched product per level of
    :func:`_tree_levels`, whose last level holds each piece's product; no
    prefix is ever stored, and each level is dropped once the next is
    built, the chunk's step propagators first.  Each piece's product then
    multiplies the product of its run's pieces before it, so a run of one
    piece takes no product beyond its own.  At d = 2 the runs' Cayley-Klein
    finals become their matrices in one ``linalg._propagator_matrix`` call.
    """
    products: list[list[Array]] = [[] for _ in runs]
    for pieces, u in _step_chunks(runs, model, t0, tf, dim, hbar):
        levels = _tree_levels(u, [stop - start for _, start, stop in pieces])
        del u
        # each level is released once the next one is built
        for top in levels:
            pass
        for (run, _, _), p in zip(pieces, top):
            products[run].append(p)
    finals = np.array([functools.reduce(lambda carry, p: _product(p, carry), pieces) for pieces in products])
    # one edge conversion for all the runs' finals, a matrix stack as it is
    return list(_propagator_matrix(finals))


def relative_error(u_approx, u_ref) -> float:
    """``||u_approx - u_ref||_F / ||u_ref||_F``."""
    a = np.asarray(u_approx, dtype=np.complex128)
    r = np.asarray(u_ref, dtype=np.complex128)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    ref_norm = frobenius_norm(r)
    if ref_norm == 0.0:
        raise ValueError("reference propagator has zero norm")
    return float(frobenius_norm(a - r)) / float(ref_norm)


def fit_order(
    dts: Sequence[float],
    errors: Sequence[float],
    floor: float | Sequence[float] = 0.0,
    ceiling: float = np.inf,
) -> float:
    """Least-squares slope of ln(error) against ln(dt).

    Records with ``error <= floor`` sit at the rounding floor of the
    accumulated matrix product and records with ``error >= ceiling`` are
    outside the asymptotic regime; both are excluded so they cannot flatten
    the fit.  ``floor`` may be per-record.  Raises ``ValueError`` unless the
    records left span at least two distinct dt values.
    """
    dts = list(dts)
    errors = list(errors)
    floors = np.broadcast_to(np.asarray(floor, dtype=float), (len(dts),))
    pairs = [
        (dt, err)
        for dt, err, flr in zip(dts, errors, floors)
        if flr < err < ceiling
    ]
    distinct = len({dt for dt, _ in pairs})
    if distinct < 2:
        raise ValueError(
            f"need usable records at 2 or more distinct dt values in the fit window, got {distinct}"
        )
    log_dt = np.log([p[0] for p in pairs])
    log_err = np.log([p[1] for p in pairs])
    slope, _ = np.polyfit(log_dt, log_err, 1)
    return float(slope)


@dataclass(frozen=True)
class ConvergenceRecord:
    method: MethodId
    dt: float
    n_steps: int
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    records: tuple[ConvergenceRecord, ...]
    slopes: dict[MethodId, float]
    reference_n_steps: int
    reference_dt: float
    reference_agreement: float

    def errors_for(self, method: MethodId) -> list[ConvergenceRecord]:
        return [r for r in self.records if r.method == method]


def default_ladder(tf: float, t0: float = 0.0) -> list[float]:
    """The bundled step-size ladder: ``(tf - t0) / n`` for the standard counts."""
    return [(tf - t0) / n for n in DEFAULT_LADDER_STEP_COUNTS]


def _steps_for(dt: float, span: float) -> int:
    if not math.isfinite(dt):
        raise ValueError(f"step size must be finite, got {dt!r}")
    if dt <= 0:
        raise PreconditionError(f"step size must be positive, got {dt}")
    if not math.isfinite(span / dt):
        raise PreconditionError(f"dt={dt!r} gives more steps over {span!r} than a float can count")
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > _DIVISIBILITY_RTOL * max(1.0, abs(span)):
        raise PreconditionError(
            f"dt={dt!r} does not divide the interval length {span!r} "
            f"to an integer step count within {_DIVISIBILITY_RTOL:g} relative"
        )
    return n


def convergence_study(
    model,
    methods: Sequence[MethodId],
    dts: Sequence[float] | None = None,
    tf: float = 100.0,
    t0: float = 0.0,
    hbar: float = 1.0,
) -> ConvergenceReport:
    """Errors of each (method, dt) against a fine-grid reference, plus fitted slopes.

    The reference is :data:`REFERENCE_METHOD` on ``REFERENCE_REFINEMENT``
    times the finest rung's step count.  It is computed once, then
    independently cross-checked with :data:`CROSS_CHECK_METHOD` on the same
    grid; the study refuses to run if the two disagree beyond
    :data:`REFERENCE_AGREEMENT_TOL` relative; only then is the ladder run,
    every method's rungs in one pass (:func:`_final_propagators`), and each
    record's error taken from one stacked Frobenius norm, the floats of
    :func:`relative_error`.  Checks ``hbar``, the interval, the methods (a
    sequence, not a string: ``TypeError`` otherwise, and for an entry that
    is not a :class:`MethodId`; ``ValueError`` for none, since a study of no
    method would run both references for nothing, or for one listed twice),
    the ladder and its step counts, then takes a
    callable's dimension from one sample at ``t0``, then checks that the
    reference grid fits (:func:`_checked_size`), all before the study
    samples anything else.
    """
    span = _checked_span(t0, tf, hbar)
    if not isinstance(methods, Sequence) or isinstance(methods, str):
        raise TypeError(f"methods must be a sequence of MethodId, got {methods!r}")
    for i, method in enumerate(methods):
        _checked_method(method, f"methods[{i}]")
    if len(methods) == 0:
        raise ValueError("methods must list at least one method, got none")
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ValueError(f"methods list {method.value} more than once; each method is studied once")
    if dts is None:
        dts = default_ladder(tf, t0)
    if len(dts) == 0:
        raise ValueError("dts must list at least one step size, got an empty ladder")
    counts = [_steps_for(dt, span) for dt in dts]
    for i, n in enumerate(counts):
        if n in counts[:i]:
            raise ValueError(f"dts give the step count {n} more than once; each rung needs its own step count")

    n_ref = REFERENCE_REFINEMENT * max(counts)
    if isinstance(model, HamiltonianModel):
        dim = model.dim
    else:
        dim = np.atleast_1d(model(float(t0))).shape[-1]
    _checked_size(n_ref, dim)

    (u_ref,) = _final_propagators([(REFERENCE_METHOD, n_ref)], model, t0, tf, dim, hbar)
    (u_check,) = _final_propagators([(CROSS_CHECK_METHOD, n_ref)], model, t0, tf, dim, hbar)
    agreement = relative_error(u_check, u_ref)
    if not agreement <= REFERENCE_AGREEMENT_TOL:
        raise PreconditionError(
            f"reference propagators disagree: {REFERENCE_METHOD.value} vs "
            f"{CROSS_CHECK_METHOD.value} relative error {agreement:.3e} "
            f"exceeds {REFERENCE_AGREEMENT_TOL:g}"
        )

    # one packed pass over every method's whole ladder
    runs = [(method, n) for method in methods for n in counts]
    finals = np.stack(_final_propagators(runs, model, t0, tf, dim, hbar))
    errors = frobenius_norm(finals - u_ref) / frobenius_norm(u_ref)
    records = [
        ConvergenceRecord(method, float(dt), n, float(error))
        for (method, n), dt, error in zip(runs, itertools.cycle(dts), errors)
    ]

    # A product of n machine-accurate unitaries drifts by O(n * eps), and the
    # reference contributes its own share, so records below
    # eps * (n + n_ref) measure rounding, not truncation.
    eps = math.ulp(1.0)
    slopes: dict[MethodId, float] = {}
    for method in methods:
        own = [r for r in records if r.method == method]
        floors = [eps * (r.n_steps + n_ref) for r in own]
        try:
            slopes[method] = fit_order(
                [r.dt for r in own], [r.error for r in own], floor=floors, ceiling=FIT_ERROR_CEILING
            )
        except ValueError:
            slopes[method] = float("nan")  # not enough rungs in the fit window

    return ConvergenceReport(
        records=tuple(records),
        slopes=slopes,
        reference_n_steps=n_ref,
        reference_dt=span / n_ref,
        reference_agreement=agreement,
    )
