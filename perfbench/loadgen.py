"""Closed- and open-loop query load from one process over two connections.

The query stream (sources and targets) and the open-loop arrival times
are drawn from the run's seed, so one seed always offers the same inputs.
Every request is one :class:`Sample`; a request that fails or never gets
an answer keeps ``done = inf``, so it counts as infinite latency.

* closed loop: each connection sends its next query when the previous
  answer lands.
* open loop: Poisson arrivals at a fixed rate (exactly ``rate * seconds``
  of them per window), dealt round-robin to the
  connections and pipelined, so a slow answer delays nothing but its own
  connection's queue.  Latency runs from the scheduled arrival, and
  ``sent - sched`` is how late the generator fired.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass
from time import monotonic  # system-wide, so comparable across processes

import numpy as np


CONNECTIONS = 2
#: how long outstanding requests may take to drain after the window
GRACE_S = 30.0


@dataclass
class Sample:
    sched: float
    sent: float
    warm: bool
    done: float = math.inf
    line: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.sched


class Queries:
    """The seeded query stream, as request lines."""

    CHUNK = 4096

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = np.random.default_rng([seed, 0])
        self.buf: deque[bytes] = deque()

    def next(self) -> bytes:
        if not self.buf:
            sources = self.rng.integers(0, self.n, size=self.CHUNK)
            targets = self.rng.random(self.CHUNK)
            self.buf.extend(
                (json.dumps({"op": "query", "source": int(s),
                             "target": float(t)}) + "\n").encode()
                for s, t in zip(sources, targets)
            )
        return self.buf.popleft()


async def _open_connections(host: str, port: int):
    return [await asyncio.open_connection(host, port)
            for _ in range(CONNECTIONS)]


async def _close(conns) -> None:
    for _, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(host: str, port: int, queries: Queries,
                      warmup_s: float, seconds: float) -> list[Sample]:
    samples: list[Sample] = []
    conns = await _open_connections(host, port)
    start = monotonic()
    warm_end = start + warmup_s
    end = warm_end + seconds

    async def drive(reader, writer) -> None:
        while monotonic() < end:
            t0 = monotonic()
            sample = Sample(sched=t0, sent=t0, warm=t0 < warm_end)
            samples.append(sample)
            writer.write(queries.next())
            await writer.drain()
            raw = await reader.readline()
            if not raw.endswith(b"\n"):
                return  # connection closed: the sample stays failed
            sample.done = monotonic()
            sample.line = raw[:-1].decode("utf-8")

    try:
        await asyncio.gather(*(drive(r, w) for r, w in conns))
    finally:
        await _close(conns)
    return samples


async def open_loop(host: str, port: int, queries: Queries, seed: int,
                    rate: float, warmup_s: float,
                    seconds: float) -> list[Sample]:
    total = warmup_s + seconds
    # a Poisson process conditioned on its count: uniform order statistics,
    # so every seed offers exactly rate * total requests
    rng = np.random.default_rng([seed, 1])
    arrivals = np.sort(rng.uniform(0.0, total, size=round(rate * total)))
    # encoded up front, so the schedule never waits on the encoder
    lines = [queries.next() for _ in arrivals]
    samples: list[Sample] = []
    pending = [deque() for _ in range(CONNECTIONS)]
    conns = await _open_connections(host, port)
    sending = True

    async def receive(i: int, reader) -> None:
        while True:
            raw = await reader.readline()
            if not raw.endswith(b"\n"):
                return
            sample = pending[i].popleft()
            sample.done = monotonic()
            sample.line = raw[:-1].decode("utf-8")
            if not sending and not pending[i]:
                return

    readers = [asyncio.create_task(receive(i, r))
               for i, (r, _) in enumerate(conns)]
    try:
        start = monotonic()
        for k, offset in enumerate(arrivals):
            due = start + float(offset)
            delay = due - monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            i = k % CONNECTIONS
            sample = Sample(sched=due, sent=monotonic(),
                            warm=offset < warmup_s)
            samples.append(sample)
            pending[i].append(sample)
            writer = conns[i][1]
            writer.write(lines[k])
            await writer.drain()
        sending = False
        for i, task in enumerate(readers):
            if not pending[i]:
                task.cancel()  # all answered: stop waiting for more
        done, _ = await asyncio.wait(readers, timeout=GRACE_S)
        for task in done:
            if not task.cancelled():
                task.result()
    except (ConnectionError, OSError):
        pass  # unanswered samples stay failed
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        await _close(conns)
    return samples
