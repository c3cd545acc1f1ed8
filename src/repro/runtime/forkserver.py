"""Supervisor side of the worker fork server.

Every worker attempt gets its own fresh process, forked from a warm
interpreter (:mod:`repro.runtime.zygote`) instead of exec'd and
re-imported: the fork server has already paid for the interpreter
start-up and the numpy import.  :func:`spawn_worker` returns a
:class:`ForkedWorker`, a handle with the slice of the
``subprocess.Popen`` interface the supervisor uses (``pid``,
``returncode``, ``communicate``, ``poll``, ``wait``, ``send_signal``).

The fork server is process-wide and started lazily by the first
attempt.  It is keyed by interpreter and by the environment variables an
interpreter reads once at start-up (``PYTHON*`` including
``PYTHONPATH``, locale, and numpy's threading knobs), so every
supervisor of one process shares it.  At interpreter exit its control
socket is closed and the process is waited for, which also folds the
CPU time of every worker it reaped into this process's children
rusage.  A fork server that dies, or does not fork a requested worker
within the attempt's hard deadline (it is then killed), is replaced
once; the attempts it leaves behind have their process groups killed
and end as ``SIGKILL`` deaths.

It needs Linux: the fork server watches its workers through pidfds.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import selectors
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The fork server script, run by path with ``python -S``.
ZYGOTE_PATH = str(Path(__file__).with_name("zygote.py"))

#: Environment variables an interpreter (or numpy's import) reads once
#: at start-up; attempts that differ in them need their own fork server.
STARTUP_ENV_PREFIXES = ("PYTHON", "LANG", "LC_", "OMP_", "OPENBLAS_", "MKL_", "NPY_")

#: How long a fork server gets to exit once its control socket closed.
CLOSE_TIMEOUT_SECONDS = 30.0

#: Read size for worker output pipes.
_CHUNK = 1 << 15

#: How often a worker start that is still waiting checks its cancel flag.
_CANCEL_POLL_SECONDS = 0.1


class ForkServerLost(OSError):
    """The fork server died, or stalled and was killed, before it
    forked the requested worker."""


class SpawnCancelled(Exception):
    """A worker start was cancelled while waiting for the fork server."""


def supported() -> bool:
    """Whether this platform can run the fork server (it needs pidfds)."""
    return hasattr(os, "pidfd_open")


class ForkServer:
    """One running zygote and the socket that feeds it requests."""

    def __init__(self, python: str, env: Dict[str, str]) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        zygote_env = dict(env)
        pythonpath = zygote_env.pop("PYTHONPATH", "")
        try:
            self.proc = subprocess.Popen(
                [python, "-S", ZYGOTE_PATH, str(theirs.fileno()), pythonpath],
                pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                env=zygote_env,
                start_new_session=True,  # out of reach of terminal signals
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._sock = ours
        self._lock = threading.Lock()

    def spawn(
        self,
        env: Dict[str, str],
        cwd: str,
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> "ForkedWorker":
        """Fork one worker with ``env`` and ``cwd``.

        Raises :class:`ForkServerLost` if the zygote is gone, or did not
        fork the worker within ``timeout`` seconds (the zygote is then
        killed), and :class:`SpawnCancelled` once ``cancel`` is set.
        """
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        stderr_r, stderr_w = os.pipe()
        channel, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        request = json.dumps({"env": env, "cwd": cwd}).encode()
        try:
            try:
                with self._lock:
                    socket.send_fds(
                        self._sock, [request], [stdin_r, stdout_w, stderr_w, theirs.fileno()]
                    )
            except OSError as exc:
                raise ForkServerLost(
                    f"worker fork server (pid {self.proc.pid}) is gone"
                ) from exc
            finally:
                for fd in (stdin_r, stdout_w, stderr_w):
                    os.close(fd)
                theirs.close()
            reply = self._await_pid(channel, timeout, cancel)
        except BaseException:
            channel.close()
            for fd in (stdin_w, stdout_r, stderr_r):
                os.close(fd)
            raise
        worker = ForkedWorker(int(reply[1]), stdin_w, stdout_r, stderr_r, channel)
        if reply[0] == b"exit":  # died before it could report in
            worker.returncode = int(reply[2])
        return worker

    def _await_pid(
        self,
        channel: socket.socket,
        timeout: Optional[float],
        cancel: Optional[threading.Event],
    ) -> List[bytes]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _CANCEL_POLL_SECONDS
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    self.kill()
                    raise ForkServerLost(
                        f"worker fork server (pid {self.proc.pid}) did not fork a "
                        f"worker within {timeout:.3g}s and was killed"
                    )
            if select.select([channel], [], [], wait)[0]:
                reply = channel.recv(64).split()
                if len(reply) < 2:
                    raise ForkServerLost(f"worker fork server (pid {self.proc.pid}) is gone")
                return reply
            if cancel is not None and cancel.is_set():
                raise SpawnCancelled("worker start cancelled")

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL the zygote and reap it."""
        self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        """Close the control socket and wait for the zygote to exit."""
        self._sock.close()
        try:
            self.proc.wait(timeout=CLOSE_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            self.kill()


_servers: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], ForkServer] = {}
_servers_lock = threading.Lock()


@atexit.register
def shutdown() -> None:
    """Stop and reap every fork server this process started."""
    with _servers_lock:
        servers = list(_servers.values())
        _servers.clear()
    for server in servers:
        server.close()


def _server_key(python: str, env: Dict[str, str]) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    return python, tuple(sorted(
        (name, value) for name, value in env.items() if name.startswith(STARTUP_ENV_PREFIXES)
    ))


def _server_for(python: str, env: Dict[str, str], stale: Optional[ForkServer]) -> ForkServer:
    key = _server_key(python, env)
    with _servers_lock:
        server = _servers.get(key)
        if server is not None and (server is stale or not server.alive()):
            del _servers[key]
            server.close()
            server = None
        if server is None:
            server = _servers[key] = ForkServer(python, env)
        return server


def spawn_worker(
    python: str,
    env: Dict[str, str],
    timeout: Optional[float] = None,
    cancel: Optional[threading.Event] = None,
) -> "ForkedWorker":
    """Fork a fresh worker process, in this working directory, from the
    fork server for ``python``.

    A fork server found dead, or killed for not forking the worker
    within ``timeout`` seconds, is replaced once before giving up with
    :class:`ForkServerLost`.  Setting ``cancel`` (from another thread)
    ends the wait with :class:`SpawnCancelled`.
    """
    cwd = os.getcwd()
    server = _server_for(python, env, None)
    try:
        return server.spawn(env, cwd, timeout, cancel)
    except ForkServerLost:
        return _server_for(python, env, server).spawn(env, cwd, timeout, cancel)


class ForkedWorker:
    """A worker forked by the fork server, driven like a ``Popen``.

    Its stdio are pipes to this process.  Its exit status arrives on the
    status channel from the zygote, which reaped it.  Text is decoded as
    UTF-8 (undecodable bytes replaced).
    """

    def __init__(
        self, pid: int, stdin: int, stdout: int, stderr: int, channel: socket.socket
    ) -> None:
        self.pid = pid
        self.args = ["<forked worker>", str(pid)]
        self.returncode: Optional[int] = None
        self._stdin: Optional[int] = stdin
        self._outputs: Dict[int, List[bytes]] = {stdout: [], stderr: []}
        self._order = (stdout, stderr)
        self._open = {stdout, stderr}
        self._channel = channel
        self._status_lock = threading.Lock()
        self._input: Optional[memoryview] = None
        self._lost_note = b""

    # -- exit status -------------------------------------------------

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self._collect(0.0)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if self.returncode is None and not self._collect(timeout):
            raise subprocess.TimeoutExpired(self.args, timeout)
        return self.returncode  # type: ignore[return-value]

    def send_signal(self, signum: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def _collect(self, timeout: Optional[float]) -> bool:
        """Read the exit status within ``timeout``; True once known."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._status_lock.acquire(timeout=-1 if timeout is None else max(timeout, 0.0)):
            return False
        try:
            if self.returncode is not None:
                return True
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not select.select([self._channel], [], [], remaining)[0]:
                return False
            reply = self._channel.recv(64).split()
            if len(reply) == 3 and reply[0] == b"exit":
                self.returncode = int(reply[2])
            else:
                self._lost()
            return True
        finally:
            self._status_lock.release()

    def _lost(self) -> None:
        """The fork server died: nobody can report this worker's end."""
        for kill in (os.killpg, os.kill):
            try:
                kill(self.pid, signal.SIGKILL)
            except OSError:
                pass
        self._lost_note = (
            b"\n[worker fork server died; the worker's process group was killed]\n"
        )
        self.returncode = -signal.SIGKILL

    # -- stdio -------------------------------------------------------

    def communicate(
        self, input: Optional[str] = None, timeout: Optional[float] = None
    ) -> Tuple[str, str]:
        """Send ``input``, read both outputs to EOF, wait for the exit.

        Like ``Popen.communicate``: on timeout raises
        ``subprocess.TimeoutExpired`` and a later call picks up where
        this one stopped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._input is None:
            self._input = memoryview((input or "").encode("utf-8"))
        with selectors.DefaultSelector() as selector:
            if self._stdin is not None:
                if self._input:
                    selector.register(self._stdin, selectors.EVENT_WRITE)
                else:
                    self._close_stdin()
            for fd in self._open:
                selector.register(fd, selectors.EVENT_READ)
            if self.returncode is None:
                selector.register(self._channel, selectors.EVENT_READ)
            while self._stdin is not None or self._open:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise subprocess.TimeoutExpired(self.args, timeout)
                for key, _ in selector.select(remaining):
                    if key.fileobj is self._channel:
                        # The exit status (or the fork server's death)
                        # is in; the pipes drain to EOF after it.
                        selector.unregister(self._channel)
                        self._collect(0.0)
                    elif key.fd == self._stdin:
                        self._write_input(selector)
                    else:
                        data = os.read(key.fd, _CHUNK)
                        if data:
                            self._outputs[key.fd].append(data)
                        else:
                            selector.unregister(key.fd)
                            self._open.discard(key.fd)
                            os.close(key.fd)
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        self.wait(remaining)
        self._channel.close()
        stdout, stderr = (
            b"".join(self._outputs[fd]).decode("utf-8", "replace") for fd in self._order
        )
        return stdout, stderr + self._lost_note.decode()

    def _write_input(self, selector: selectors.BaseSelector) -> None:
        try:
            written = os.write(self._stdin, self._input[: select.PIPE_BUF])
        except BrokenPipeError:
            written = len(self._input)  # the worker stopped reading
        self._input = self._input[written:]
        if not self._input:
            selector.unregister(self._stdin)
            self._close_stdin()

    def _close_stdin(self) -> None:
        if self._stdin is not None:
            os.close(self._stdin)
            self._stdin = None

    def __del__(self) -> None:
        # A handle dropped mid-conversation (the supervisor unwinding)
        # must not leak its pipe ends.
        for fd in [self._stdin, *self._open]:
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
