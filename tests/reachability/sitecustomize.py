"""Reachability tracer, loaded at interpreter start from ``PYTHONPATH``.

With this directory on ``PYTHONPATH`` and ``REACHABILITY_OUT`` set to an
absolute directory, every Python process (subprocesses included) records
each code object it enters and, on exit, writes one JSON file there:
source file under ``src/repro`` -> first lines of the code entered.  The
tracer sees ``call`` events only and returns None, so no line is traced.
``report.py`` turns the files into per-module counts.
"""

import atexit
import json
import os
import sys
import threading
import uuid

_OUT = os.environ.get("REACHABILITY_OUT")
_SRC = os.sep + os.path.join("src", "repro") + os.sep
_entered: dict = {}


def _call(frame, event, arg):
    _entered[id(frame.f_code)] = frame.f_code


def _write():
    sys.settrace(None)
    lines: dict = {}
    for code in list(_entered.values()):
        if _SRC in code.co_filename:
            lines.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    os.makedirs(_OUT, exist_ok=True)
    name = f"{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
    with open(os.path.join(_OUT, name), "w", encoding="utf-8") as out:
        json.dump({path: sorted(firsts) for path, firsts in lines.items()}, out)


if _OUT:
    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_write)
