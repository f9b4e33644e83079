"""Outside-in samples of the appliance process: its ``/metrics`` page
and its ``/proc/<pid>`` entries.  Neither touches the program."""

from __future__ import annotations

import http.client
import os
import re

_SERIES = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_TICKS = os.sysconf("SC_CLK_TCK")


class Scrape:
    """One parsed Prometheus text page."""

    def __init__(self, text: str):
        self.series: list[tuple[str, dict[str, str], float]] = []
        for line in text.splitlines():
            match = _SERIES.match(line)
            if match is None:
                continue
            name, labels, value = match.groups()
            self.series.append((name, dict(_LABEL.findall(labels or "")),
                                float(value)))

    def total(self, name: str, **labels: str) -> float:
        """Sum of every series of ``name`` whose labels match."""
        return sum(value for series, have, value in self.series
                   if series == name
                   and all(have.get(k) == v for k, v in labels.items()))


def scrape(port: int) -> Scrape:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        return Scrape(conn.getresponse().read().decode())
    finally:
        conn.close()


def delta(after: Scrape, before: Scrape, name: str, **labels: str) -> float:
    return after.total(name, **labels) - before.total(name, **labels)


def mean_delta(after: Scrape, before: Scrape, histogram: str,
               **labels: str) -> float:
    """Mean observation of a histogram between two scrapes (0 if none)."""
    count = delta(after, before, histogram + "_count", **labels)
    if count <= 0:
        return 0.0
    return delta(after, before, histogram + "_sum", **labels) / count


def cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def status(pid: int) -> dict[str, int]:
    """``Threads`` and ``VmHWM`` (kB) from /proc/<pid>/status."""
    out = {}
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("Threads", "VmHWM"):
                out[key] = int(value.split()[0])
    return out
