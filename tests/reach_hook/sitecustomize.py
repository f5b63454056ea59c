"""Record which functions this Python process enters (``tests/reach.py``).

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one, so putting this directory on ``PYTHONPATH``
loads it into every interpreter the run starts: forked shard workers
inherit it, and ``repro serve`` / ``repro worker`` children start with it.
It does nothing unless ``REACH_DIR`` names a directory.

The hook is a global trace function (``sys.settrace`` and
``threading.settrace``) that returns ``None``: it sees each Python frame
once, on entry, and traces no lines.  A profile hook would see the same
calls, but the benchmark's traced run installs and then clears its own
``sys.setprofile`` function, which would end the record halfway.

``REACH_KNOBS`` names a JSON file of the defaulted parameters to watch,
``{"file<TAB>qualname": {parameter: fingerprint of its default}}``.  On
the ``call`` event ``frame.f_locals`` holds only the arguments, so the
hook fingerprints each watched one (:func:`fingerprint`) and stops
watching a parameter once it has seen it differ from its default.  A
generator's frame is entered again on every resume, with its locals as
the body left them, so only its first entry is read.

At exit the process writes one ``file<TAB>firstlineno<TAB>qualname`` line
per code object it entered under ``REACH_SRC`` (paths relative to it) to
a ``.tsv`` file of its own in ``REACH_DIR``, and one
``file<TAB>qualname<TAB>parameter`` line per parameter given a
non-default value to a ``.knobs`` file beside it.  Exit here means
``atexit``, and also ``os._exit`` (a forked child's normal end),
``os.execv`` (the benchmark re-executes itself) and a SIGTERM that meets
the default handler, which is how a parent stops its forked shard
workers.  Only SIGKILL loses a record.
"""

import atexit
import dis
import json
import os
import signal
import sys
import threading

_OUT = os.environ.get("REACH_DIR")
_SRC = os.path.realpath(os.environ.get("REACH_SRC", "src")) + os.sep
_SCALARS = (type(None), bool, int, float, complex, str, bytes)
_RESUMED = 0x20 | 0x80 | 0x200  # CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR


def fingerprint(value) -> str:
    """A scalar, or a tuple of scalars, by ``repr``; a function by its
    name; anything else by its type."""
    if isinstance(value, _SCALARS) or (
        type(value) is tuple and all(isinstance(v, _SCALARS) for v in value)
    ):
        return repr(value)
    if callable(value) and hasattr(value, "__qualname__") and not isinstance(value, type):
        return f"<{type(value).__name__} {getattr(value, '__module__', '')}.{value.__qualname__}>"
    return f"<{type(value).__module__}.{type(value).__qualname__}>"


if _OUT:
    _spec_path = os.environ.get("REACH_KNOBS")
    if _spec_path:
        with open(_spec_path, encoding="utf-8") as fh:
            _SPEC = json.load(fh)
    else:
        _SPEC = {}
    _paths: dict = {}  # co_filename -> path under REACH_SRC, or None
    # Keyed by id(code), the code object kept alive in the value: two code
    # objects compare equal when their bodies do, file and qualname apart
    # (``__init__(self, seed=0): self._seed = seed`` in two classes).
    _entered: dict = {}  # id -> (code, watched {param: default}, first offset or None)
    _given: set = set()  # (code id, param) seen with a non-default value

    def _rel(code):
        name = code.co_filename
        if name not in _paths:  # "<string>", "<frozen os>": no file
            real = "" if name.startswith("<") else os.path.realpath(name)
            _paths[name] = real[len(_SRC):] if real.startswith(_SRC) else None
        return _paths[name]

    def _watch(code):
        rel = _rel(code)
        params = _SPEC.get(f"{rel}\t{code.co_qualname}") if rel is not None else None
        first = None
        if params and code.co_flags & _RESUMED:
            first = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        return code, dict(params or {}), first

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            try:
                _, watch, first = _entered[id(code)]
            except KeyError:
                _, watch, first = _entered[id(code)] = _watch(code)
            if watch and (first is None or frame.f_lasti == first):
                args = frame.f_locals
                for param, default in list(watch.items()):
                    if param in args and fingerprint(args[param]) != default:
                        _given.add((id(code), param))
                        watch.pop(param, None)

    def _write() -> None:
        rows, knobs = set(), set()
        for key, (code, _, _) in list(_entered.items()):
            if _rel(code) is not None:
                rows.add(f"{_rel(code)}\t{code.co_firstlineno}\t{code.co_qualname}\n")
        for key, param in list(_given):
            code = _entered[key][0]
            knobs.add(f"{_rel(code)}\t{code.co_qualname}\t{param}\n")
        path = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(4).hex()}")
        for suffix, lines in ((".knobs", knobs), (".tsv", rows)):
            with open(path + suffix + ".part", "w", encoding="utf-8") as fh:
                fh.writelines(sorted(lines))
            os.replace(path + suffix + ".part", path + suffix)

    def _before(real):
        def call(*args):
            if threading.current_thread() is not threading.main_thread():
                # A watcher thread ending the process (a benchmark child
                # whose stdin closed) would cut a teardown the main thread
                # is running at the same moment, so the record would
                # depend on which came first.  Let the main thread finish.
                threading.main_thread().join(2.0)
            _write()
            return real(*args)

        return call

    def _on_sigterm(signum, frame):
        _write()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    atexit.register(_write)
    os._exit = _before(os._exit)
    os.execv = _before(os.execv)
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_sigterm)
    sys.settrace(_hook)
    threading.settrace(_hook)
