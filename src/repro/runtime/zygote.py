"""The fork server ("zygote") that every campaign worker is forked from.

Run by path, never imported::

    python -S zygote.py FD PYTHONPATH

``FD`` is this process's end of an ``AF_UNIX`` ``SOCK_SEQPACKET``
socket pair; :mod:`repro.runtime.forkserver` holds the other end.
``PYTHONPATH`` is the one its workers get (possibly empty).  The file
is stdlib-only and never imports ``repro``.  Before serving it imports
numpy and the stdlib modules a worker needs, resolved through
``PYTHONPATH`` first, as a cold worker would resolve them, so a forked
worker skips the interpreter start-up and the numpy import.  It must
not go further than that:

- ``repro`` is imported only in the child, after ``site`` has run
  there, so a ``sitecustomize`` or ``.pth`` hook that wraps ``repro``
  modules as they load sees every one of them load;
- ``-S`` keeps ``site`` out of this process, so start-up hooks run in
  each child under the child's own pid, exactly once, as they would in
  a fresh interpreter.

Protocol.  Each request is one datagram: a JSON object ``{"env": {...},
"cwd": "..."}`` carrying four file descriptors — the worker's stdin,
stdout and stderr, and a per-attempt ``SOCK_SEQPACKET`` status
channel.  For each request the zygote forks one child.  The child
becomes a session leader, installs its stdio, and sends ``pid <pid>``
on the channel; only then is it safe to signal its process group.  The
zygote reaps the child through a pidfd and sends ``exit <pid> <code>``
(``os.waitstatus_to_exitcode``: negative for a signal), then closes the
channel.  EOF on a channel without an ``exit`` message means the
zygote died.

The zygote never starts a thread.  It exits once its control socket
closes and every child is reaped.  A control socket that closes while
children still run means the supervisor died: those children are
SIGKILLed, since nobody is left to read their results.
"""

import gc
import json
import os
import select
import signal
import socket
import sys
import time
import warnings

#: Largest request datagram (the JSON environment) accepted.
MAX_REQUEST_BYTES = 1 << 20

#: Modules the worker side of ``repro`` (and ``site``) imports, loading
#: them here moves their cost out of every attempt.  Everything but
#: numpy is stdlib.
PRELOAD = (
    "numpy", "numpy.ma", "numpy.random",
    "__future__", "bisect", "bz2", "concurrent.futures.thread", "copy",
    "dataclasses", "fcntl", "fnmatch", "hashlib", "heapq", "importlib.resources",
    "importlib.util", "ipaddress", "json", "locale", "logging", "lzma", "pathlib",
    "queue", "random", "resource", "selectors", "shutil", "string", "subprocess",
    "tempfile", "traceback", "urllib.parse", "uuid", "zipfile",
)


def preload(pythonpath):
    """Import :data:`PRELOAD`; return the base path.

    The base path is this interpreter's ``sys.path`` without the script
    directory: the standard-library entries every fresh interpreter
    starts from.  ``pythonpath`` and the site directories are on the
    path only while :data:`PRELOAD` is imported, in the order a cold
    worker searches them; the child puts them back itself.
    """
    import site

    base = sys.path[1:]
    site_dirs = list(site.getsitepackages())
    if site.check_enableusersite():
        site_dirs.insert(0, site.getusersitepackages())
    sys.path[:] = (pythonpath.split(os.pathsep) if pythonpath else []) + base + site_dirs
    for name in PRELOAD:
        try:
            __import__(name)
        except ImportError:
            pass  # the child imports whatever it finds itself
    sys.path[:] = base
    # Children never collect what is loaded so far: their collections
    # skip it, and so do not copy its pages out of this process.
    gc.freeze()
    return base


def serve(control):
    """Fork a child per request until the control socket closes.

    Returns ``None`` in the zygote once it is done, and
    ``(request, stdio_fds, channel_fd, t_fork)`` in a freshly forked
    child, which must then run :func:`run_child` and never come back.
    """
    children = {}  # pidfd -> (pid, status channel)
    while control is not None or children:
        watched = list(children)
        if control is not None:
            watched.append(control)
        for ready in select.select(watched, [], [])[0]:
            if ready is not control:
                pid, channel = children.pop(ready)
                os.close(ready)
                _, status = os.waitpid(pid, 0)
                try:
                    channel.send(b"exit %d %d" % (pid, os.waitstatus_to_exitcode(status)))
                except OSError:
                    pass  # the supervisor side already gave up on it
                channel.close()
                continue
            try:
                message, fds, flags, _ = socket.recv_fds(control, MAX_REQUEST_BYTES, 4)
            except OSError:
                message, fds, flags = b"", [], 0
            if not message:
                control.close()
                control = None
                for pid, _ in children.values():
                    _kill_group(pid)
                continue
            if len(fds) != 4 or flags & (socket.MSG_TRUNC | socket.MSG_CTRUNC):
                for fd in fds:
                    os.close(fd)
                continue
            with warnings.catch_warnings():
                # numpy's BLAS pool threads make Python 3.12+ warn about
                # forking; they are fork-safe (pthread_atfork).
                warnings.simplefilter("ignore", DeprecationWarning)
                t_fork = time.time()
                pid = os.fork()
            if pid == 0:
                control.close()
                for pidfd, (_, channel) in children.items():
                    os.close(pidfd)
                    channel.close()
                return json.loads(message), fds[:3], fds[3], t_fork
            for fd in fds[:3]:
                os.close(fd)
            children[os.pidfd_open(pid)] = (pid, socket.socket(fileno=fds[3]))
    return None


def _kill_group(pid):
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
        except OSError:
            pass


def run_child(request, stdio, channel_fd, t_fork, base_path):
    """Become a fresh worker process for one attempt, then exit.

    Mirrors what ``python -m`` would do with the request's environment
    and working directory: ``sys.path`` starts as ``PYTHONPATH`` then the
    standard library, ``site`` runs (site directories, ``.pth`` files,
    ``sitecustomize``, duplicates dropped), and the working directory
    goes in front last.  The exit status is the worker's, through
    normal interpreter shutdown, so ``atexit`` handlers run.
    """
    os.setsid()
    for target, fd in enumerate(stdio):
        os.dup2(fd, target)
        os.close(fd)
    with socket.socket(fileno=channel_fd) as channel:
        channel.send(b"pid %d" % os.getpid())

    env = request["env"]
    os.environ.clear()
    os.environ.update(env)
    os.chdir(request["cwd"])
    pythonpath = env.get("PYTHONPATH")
    sys.path[:] = (pythonpath.split(os.pathsep) if pythonpath else []) + base_path
    sys.argv[:] = [""]

    import importlib
    import site

    importlib.invalidate_caches()
    site.main()
    if not getattr(sys.flags, "safe_path", False):
        sys.path.insert(0, os.getcwd())
    if "numpy.random" in sys.modules:
        # A fresh interpreter seeds numpy's legacy global generator
        # from the OS; a fork would share the zygote's state.
        sys.modules["numpy.random"].seed()

    from repro.experiments.runner import worker_main

    sys.exit(worker_main(started_at=t_fork))


if __name__ == "__main__":
    base = preload(sys.argv[2])
    child = serve(socket.socket(fileno=int(sys.argv[1])))
    if child is not None:
        run_child(*child, base_path=base)
