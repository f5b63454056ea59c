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

At exit the process writes one ``file<TAB>firstlineno<TAB>qualname`` line
per code object it entered under ``REACH_SRC`` (paths relative to it) to
a file of its own in ``REACH_DIR``.  Exit here means ``atexit``, and also
``os._exit`` (a forked child's normal end), ``os.execv`` (the benchmark
re-executes itself) and a SIGTERM that meets the default handler, which is
how a parent stops its forked shard workers.  Only SIGKILL loses a record.
"""

import atexit
import os
import signal
import sys
import threading

_OUT = os.environ.get("REACH_DIR")
_SRC = os.path.realpath(os.environ.get("REACH_SRC", "src")) + os.sep

if _OUT:
    _entered: set = set()
    _add = _entered.add

    def _hook(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _write() -> None:
        paths: dict[str, str | None] = {}
        rows = set()
        for code in list(_entered):
            name = code.co_filename
            if name not in paths:  # "<string>", "<frozen os>": no file
                real = "" if name.startswith("<") else os.path.realpath(name)
                paths[name] = real[len(_SRC):] if real.startswith(_SRC) else None
            if paths[name] is not None:
                rows.add(f"{paths[name]}\t{code.co_firstlineno}\t{code.co_qualname}\n")
        path = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(4).hex()}.tsv")
        with open(path + ".part", "w", encoding="utf-8") as fh:
            fh.writelines(sorted(rows))
        os.replace(path + ".part", path)

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
