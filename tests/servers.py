"""Run one asyncio daemon (``ServiceServer`` or ``CacheServer``) on a
background thread — the start/stop helper shared by the daemon tests and
the E11 cache benchmark."""

import asyncio
import threading


class BackgroundServer:
    """Start ``server`` on its own event loop; :meth:`stop` drains it."""

    def __init__(self, server) -> None:
        self.server = server
        started = threading.Event()

        def run():
            async def main():
                await server.start()
                started.set()
                await server.serve_forever()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "daemon failed to start"

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
