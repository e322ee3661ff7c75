"""Open-loop HTTP load generation.

Requests are sent on a fixed schedule whatever the server does: each request
has a due time, a small pool of sender threads takes requests in due order,
and latency is measured from the *due* time, so a stalled server shows up as
growing latency for every request queued behind it, not as a lower send
rate.  Each request goes over a connection of its own, closed after the
reply, as the program's own client (``urllib.request.urlopen`` in
``repro submit``) sends it.

``python3 loadgen.py <dir>`` sends ``<dir>/schedule.json`` and writes
``<dir>/outcomes.json``: the benchmark runs its client in a process of its
own, so the client's clock readings never wait on the server's interpreter
lock.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Header carrying the request's schedule index, so the server side of a
# traced run can match its handling time to the client's latency.
ID_HEADER = "X-Bench-Id"


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the schedule starts
    body: bytes
    kind: str


@dataclass
class Outcome:
    status: int  # 0 when the request failed below HTTP
    body: bytes
    due: float  # absolute perf_counter() time
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from the due time to the full response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the request waited for a free sender."""
        return self.sent - self.due


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float) -> list[float]:
    """Due times of a Poisson process of ``rate`` per second over ``seconds``."""
    times = []
    now = float(rng.exponential(1.0 / rate))
    while now < seconds:
        times.append(now)
        now += float(rng.exponential(1.0 / rate))
    return times


def run_open_loop(
    host: str,
    port: int,
    path: str,
    requests: list[Request],
    senders: int = 2,
    timeout: float = 60.0,
) -> list[Outcome]:
    """POST every request at its due time; returns outcomes in schedule order."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            request = requests[index]
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            try:
                conn.request(
                    "POST",
                    path,
                    body=request.body,
                    headers={
                        "Content-Type": "application/json",
                        "Connection": "close",
                        ID_HEADER: str(index),
                    },
                )
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, repr(exc).encode()
            finally:
                conn.close()
            outcomes[index] = Outcome(status, body, due, sent, time.perf_counter())

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    deadline = start + (requests[-1].due if requests else 0.0) + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError("load generator sender did not finish")
    return outcomes  # type: ignore[return-value]


def write_schedule(directory: Path, host: str, port: int, path: str,
                   requests: list[Request], senders: int) -> None:
    spec = {
        "host": host,
        "port": port,
        "path": path,
        "senders": senders,
        "requests": [dataclasses.asdict(r) | {"body": r.body.decode()} for r in requests],
    }
    (directory / "schedule.json").write_text(json.dumps(spec))


def read_outcomes(directory: Path) -> list[Outcome]:
    return [
        Outcome(**(outcome | {"body": outcome["body"].encode()}))
        for outcome in json.loads((directory / "outcomes.json").read_text())
    ]


def main(directory: Path) -> None:
    spec = json.loads((directory / "schedule.json").read_text())
    requests = [
        Request(r["due"], r["body"].encode(), r["kind"]) for r in spec["requests"]
    ]
    outcomes = run_open_loop(
        spec["host"], spec["port"], spec["path"], requests, senders=spec["senders"]
    )
    (directory / "outcomes.json").write_text(json.dumps([
        dataclasses.asdict(outcome) | {"body": outcome.body.decode("utf-8", "replace")}
        for outcome in outcomes
    ]))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
