"""Shared test helper: a ``repro serve`` instance embedded in a thread.

The server's asyncio loop runs on a daemon thread; the test thread
talks to it over real TCP through :class:`~repro.serve.client.ServeClient`
on an ephemeral port.  Thread-pool executors keep worker simulations in
this process, so ``SIM_COUNTER`` deltas stay observable.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time

from repro.serve.client import ServeClient
from repro.serve.server import ServeApp, ServeConfig


class EmbeddedServer:
    """Context manager: boot on port 0, expose host/port/app, drain."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("executor", "thread")
        config_kwargs.setdefault("workers", 2)
        config_kwargs.setdefault("use_disk_cache", False)
        self.config = ServeConfig(**config_kwargs)
        self.app: ServeApp | None = None
        self.host = ""
        self.port = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None

    def __enter__(self) -> "EmbeddedServer":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("embedded server failed to boot")
        if self._boot_error is not None:
            raise self._boot_error
        assert self.client().wait_ready(10)
        return self

    def __exit__(self, *exc_info) -> None:
        if (
            self._loop is not None
            and self.app is not None
            and not self._loop.is_closed()
        ):
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.app.shutdown(drain=True), self._loop
                )
                # The loop can also close before it runs the scheduled
                # call, which then never resolves: stop waiting once the
                # server thread is gone.
                deadline = time.monotonic() + 30
                while not future.done() and self._thread.is_alive():
                    if time.monotonic() > deadline:
                        raise TimeoutError("embedded server did not drain")
                    self._thread.join(0.05)
                if future.done():
                    future.result()
            except (RuntimeError, concurrent.futures.CancelledError):
                # Loop closed mid-flight (server-initiated drain) — either
                # scheduling fails outright or the pending shutdown call
                # is cancelled when the loop stops first.
                pass
        if self._thread is not None:
            self._thread.join(10)

    def _main(self) -> None:
        async def serve() -> None:
            try:
                self.app = ServeApp(self.config)
                self.host, self.port = await self.app.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # noqa: BLE001 - surfaced to tester
                self._boot_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.app.serve_until_stopped()

        try:
            asyncio.run(serve())
        except BaseException:  # noqa: BLE001 - boot errors already captured
            pass

    def client(self, timeout: float = 30.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=timeout)
