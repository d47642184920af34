"""The library calls numpy's C level itself on its hot paths.

``linalg``'s module docstring states the rule: no call from a magstep
function enters one of numpy's Python-level wrappers (``np.sum``,
``ndarray.max``, ``np.swapaxes`` ...), each of which costs 1 to 10 us
around one C call the library can make itself, the ufunc method, array
method or indexing it wraps, with the same bits.
"""

import collections
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from magstep import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_X = np.ones((2, 2))

# one call of each wrapper the library does not make
WRAPPER_CALLS = {
    "np.expand_dims": lambda: np.expand_dims(_X, -1),
    "np.swapaxes": lambda: np.swapaxes(_X, -1, -2),
    "np.tensordot": lambda: np.tensordot(_X, _X, axes=1),
    "np.searchsorted": lambda: np.searchsorted(_X[0], 1.0),
    "np.broadcast_shapes": lambda: np.broadcast_shapes((1,), (2,)),
    "np.flatnonzero": lambda: np.flatnonzero(_X),
    "np.finfo": lambda: np.finfo(float),
    "np.zeros_like": lambda: np.zeros_like(_X),
    "np.ones_like": lambda: np.ones_like(_X),
    "np.sum": lambda: np.sum(_X),
    "np.max": lambda: np.max(_X),
    "np.min": lambda: np.min(_X),
    "np.all": lambda: np.all(_X),
    "np.any": lambda: np.any(_X),
    "ndarray.sum": lambda: _X.sum(),
    "ndarray.max": lambda: _X.max(),
    "ndarray.min": lambda: _X.min(),
    "ndarray.all": lambda: _X.all(),
    "ndarray.any": lambda: _X.any(),
}


def entered(call) -> set:
    """The code objects of the Python functions ``call`` enters directly,
    but for ``__array_function__`` dispatchers, which several wrappers can
    share with calls the library still makes (``np.shape``, ``np.ravel``)."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is call.__code__:
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(old)
    return {code for code in codes if not code.co_name.endswith("_dispatcher")}


# matched by code object, not by name: np.iinfo(...).max is a property also
# called max, and ndarray.max's function is numpy's _amax
WRAPPERS = {code: name for name, call in WRAPPER_CALLS.items() for code in entered(call)}


@pytest.mark.parametrize("name", WRAPPER_CALLS)
def test_each_wrapper_is_a_python_function(name):
    # else the guard below could not see a call of it
    assert entered(WRAPPER_CALLS[name])


def test_no_library_call_enters_a_wrapper(tmp_path, monkeypatch):
    # every hot path: the oracles, each closed form and the symmetry suite's
    # steps at d = 3, a two-rung ladder of all methods, a two-level
    # trajectory and a dense d = 8 one, which reaches the Taylor tiers and
    # eigh, and the CSV writer's kernel
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wide = tmp_path / "wide.json"
    wide.write_text(importlib.import_module("workloads").wide_model_json(0))
    commands = [
        ["verify", "--suite", "all", "--dim", "3", "--draws", "1"],
        ["converge", "--case", "I", "--methods", "all", "--t-final", "1", "--dt", "0.5", "--dt", "0.25"],
        ["propagate", "--case", "II", "--method", "me6", "--n-steps", "64"],
        ["propagate", "--model", str(wide), "--method", "blanes6-gauss", "--n-steps", "64"],
    ]
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in WRAPPERS:
            caller = frame.f_back
            if caller is not None and caller.f_globals.get("__name__", "").startswith("magstep"):
                calls[WRAPPERS[frame.f_code], f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"] += 1

    old = sys.getprofile()
    for i, argv in enumerate(commands):
        sys.setprofile(profile)
        try:
            code = cli.run(argv + ["--out", str(tmp_path / f"{i}.csv")])
        finally:
            sys.setprofile(old)
        assert code == cli.EXIT_OK, argv
    assert not calls, dict(calls)
