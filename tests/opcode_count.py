"""Count the Python bytecodes a call executes, as a deterministic cost proxy.

Wall-clock gates on a shared host flake when other tenants load the core;
the number of bytecodes the interpreter runs for a fixed input does not.
:func:`count_opcodes` turns on per-opcode tracing (``sys.settrace`` with
``frame.f_trace_opcodes``) for every frame the call opens, counts the
opcode events, and puts back whatever tracer was installed before (a
coverage tool's, for instance).  Code running in C (``heapq``, NumPy,
builtins) counts nothing, so a count compares two versions of one Python
program, not a Python loop against a C one.  Counts differ between
CPython versions, so a bound on them holds for one version only.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def count_opcodes(fn: Callable[[], Any]) -> int:
    """Bytecodes executed by ``fn()`` and everything it calls from Python."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count
