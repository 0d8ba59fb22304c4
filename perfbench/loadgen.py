"""Single-process HTTP load generator for ``python -m repro serve``.

Two modes, both over keep-alive ``http.client`` connections, one per
thread, at most two threads:

- :func:`closed_loop` sends each thread's next request as soon as the
  previous answer arrives (a client scoring a table);
- :func:`open_loop` sends on a fixed schedule, request ``i`` due at
  ``t0 + i / rate`` whether or not earlier answers have arrived
  (independent users).  Latency is timed from the *due* time, so a stall
  charges every request queued behind it; ``lag`` says how late the
  generator itself ran.
"""

from __future__ import annotations

import gc
import http.client
import math
import threading
import time
from dataclasses import dataclass

from measure import percentile

PRESCRIBE = "/v1/prescribe"
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    """One request: schedule slot, timestamps (perf_counter) and answer.

    ``free`` is when the sending thread finished its previous request.
    """

    index: int
    row: int
    due: float
    free: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to when it was answered."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator itself sent the request late.

        Measured from when it was due or, if later, from when its thread
        got its previous answer: waiting on a slow server is the server's
        latency (charged through :attr:`latency`), not generator lag.
        """
        return self.sent - max(self.due, self.free)


def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=30)


def _send(conn, method: str, path: str, body: bytes | None):
    conn.request(method, path, body, HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One request on a fresh connection; returns ``(status, body)``."""
    conn = _connect(port)
    try:
        return _send(conn, method, path, body)
    finally:
        conn.close()


def _worker(port, slots, outcomes, claim) -> None:
    conn = _connect(port)
    free = -math.inf
    try:
        while True:
            i = claim()
            if i is None:
                return
            due, row, body = slots[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, payload = _send(conn, "POST", PRESCRIBE, body)
            except (OSError, http.client.HTTPException):
                status, payload = 0, b""
                conn.close()
                conn = _connect(port)
            done = time.perf_counter()
            outcomes[i] = Outcome(i, row, due, free, sent, done, status,
                                  payload)
            free = done
    finally:
        conn.close()


class MidRunAction:
    """Runs ``action()`` ``offset`` seconds into an open-loop schedule.

    It runs on the generator's main thread, which otherwise only waits for
    the load threads, so the load keeps its schedule while it runs.  The
    wall interval it took is recorded, so latency over that window (the
    hot-reload window) can be reported on its own.
    """

    def __init__(self, offset: float, action) -> None:
        self.offset = offset
        self._action = action
        self.window: tuple[float, float] | None = None
        self.error: BaseException | None = None

    def run(self) -> None:
        start = time.perf_counter()
        try:
            self._action()
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc
        self.window = (start, time.perf_counter())


def _drive(port, slots, threads, hook=None) -> list[Outcome]:
    """Run the load threads over ``slots``; fire ``hook`` at its offset.

    The generator's garbage collector is off meanwhile: a full collection
    of the benchmark's own heap would pause both load threads and read as
    server latency.
    """
    outcomes: list[Outcome | None] = [None] * len(slots)
    lock = threading.Lock()
    cursor = iter(range(len(slots)))

    def claim():
        with lock:
            return next(cursor, None)

    workers = [
        threading.Thread(target=_worker, args=(port, slots, outcomes, claim))
        for _ in range(threads)
    ]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for worker in workers:
            worker.start()
        if hook is not None:
            wait = slots[0][0] + hook.offset - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            hook.run()
        for worker in workers:
            worker.join()
    finally:
        if collecting:
            gc.enable()
    missing = [i for i, o in enumerate(outcomes) if o is None]
    if missing:
        raise RuntimeError(f"load generator lost {len(missing)} requests")
    return outcomes


def open_loop(port, requests, rate: float, duration: float,
              threads: int = 2, hook: MidRunAction | None = None,
              lead: float = 0.02) -> list[Outcome]:
    """Send ``rate * duration`` requests on schedule, cycling ``requests``.

    ``requests`` is a list of ``(row, body)`` pairs.
    """
    n = max(1, int(round(rate * duration)))
    t0 = time.perf_counter() + lead
    slots = [
        (t0 + i / rate,) + tuple(requests[i % len(requests)]) for i in range(n)
    ]
    return _drive(port, slots, threads, hook)


def closed_loop(port, requests, threads: int = 2) -> list[Outcome]:
    """Send every request once, each thread back to back."""
    now = time.perf_counter()
    slots = [(now, row, body) for row, body in requests]
    return _drive(port, slots, threads)


# -- verdicts --------------------------------------------------------------------


def latencies_ms(outcomes) -> list[float]:
    return [o.latency * 1e3 for o in outcomes]


def lags_ms(outcomes) -> list[float]:
    return [o.lag * 1e3 for o in outcomes]


def backlog_growing(outcomes, limit_ms: float) -> bool:
    """Whether latency from due time climbs across the phase.

    Compares the median of the last tenth of the schedule with the first
    tenth; a queue that keeps growing shows as a rise beyond half the
    latency limit.
    """
    ordered = sorted(outcomes, key=lambda o: o.index)
    tenth = max(1, len(ordered) // 10)
    head = percentile(latencies_ms(ordered[:tenth]), 50)
    tail = percentile(latencies_ms(ordered[-tenth:]), 50)
    return tail - head > limit_ms / 2


def rate_verdict(outcomes, limit_ms: float, q: float = 99.0) -> dict:
    """Whether one ladder rate meets the latency limit.

    A rate is met only if every request succeeded, the ``q`` percentile of
    latency from due time is within ``limit_ms``, the backlog does not
    grow, and the generator itself kept to the schedule (its own lag
    percentile within the limit): a generator that fell behind makes the
    rate unmet, never passed.
    """
    lat = latencies_ms(outcomes)
    lag = lags_ms(outcomes)
    failed = sum(1 for o in outcomes if o.status != 200)
    p = percentile(lat, q)
    lag_p = percentile(lag, q)
    growing = backlog_growing(outcomes, limit_ms)
    generator_behind = lag_p > limit_ms
    return {
        "requests": len(outcomes),
        "failed": failed,
        "p50_ms": percentile(lat, 50),
        "p_ms": p,
        "lag_ms": lag_p,
        "backlog_growing": growing,
        "generator_behind": generator_behind,
        "met": failed == 0 and p <= limit_ms and not growing
        and not generator_behind,
    }
