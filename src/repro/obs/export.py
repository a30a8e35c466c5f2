"""OpenMetrics exposition: the registry in a format a scraper ingests.

:func:`render_openmetrics` turns any :class:`~repro.obs.metrics.
MetricsSnapshot` into OpenMetrics text — counters as ``_total``
samples, gauges as-is, quantile histograms as cumulative
``_bucket{le="..."}`` series with ``_count``/``_sum`` (the log-bucket
boundaries are exposed exactly, so PromQL ``histogram_quantile`` agrees
with the in-process estimates up to the same bounded error) — ending
with the mandatory ``# EOF``.

:func:`start_metrics_server` serves it live: a stdlib
``ThreadingHTTPServer`` on a daemon thread, ``GET /metrics`` for the
exposition and ``GET /flight`` for the flight-recorder ring as JSON
lines.  One snapshot per scrape; no state beyond the registry itself.
Wire it up with ``repro metrics --serve PORT``.
"""

from __future__ import annotations

import re
import threading
from typing import List, Optional

from repro.obs.metrics import (
    MetricsSnapshot,
    QuantileHistogram,
    REGISTRY,
    _GAUGE,
)

#: Every exposed name is prefixed — a scrape config sees one namespace.
PREFIX = "repro_"

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def _name(dotted: str) -> str:
    return PREFIX + _SANITIZE.sub("_", dotted)


def _num(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "NaN" if v != v else ("+Inf" if v > 0 else "-Inf")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.9g}"


def _hist_lines(name: str, h: QuantileHistogram) -> List[str]:
    """One histogram as cumulative bucket series plus count/sum and
    the running extremes (as companion gauges)."""
    lines = [f"# TYPE {name} histogram"]
    cum = h.zero
    if h.zero:
        lines.append(f'{name}_bucket{{le="0"}} {cum}')
    for index, count in h.bucket_items():
        cum += count
        upper = QuantileHistogram.bucket_upper(index)
        lines.append(f'{name}_bucket{{le="{_num(upper)}"}} {cum}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {h.count}')
    lines.append(f"{name}_count {h.count}")
    lines.append(f"{name}_sum {_num(h.total)}")
    if h.count > 0:
        lines.append(f"# TYPE {name}_min gauge")
        lines.append(f"{name}_min {_num(h.lo)}")
        lines.append(f"# TYPE {name}_max gauge")
        lines.append(f"{name}_max {_num(h.hi)}")
    return lines


def render_openmetrics(snap: Optional[MetricsSnapshot] = None) -> str:
    """An OpenMetrics text document of a snapshot (default: live)."""
    if snap is None:
        snap = REGISTRY.snapshot()
    hist_names = {name for name, _ in snap.hist_items()}
    counters = []
    gauges = []
    for flat in snap:
        base, _, suffix = flat.rpartition(".")
        if base in hist_names and suffix in ("count", "sum", "min", "max"):
            continue  # owned by the histogram series
        if snap.kind_of(flat) == _GAUGE:
            gauges.append(flat)
        else:
            counters.append(flat)
    lines: List[str] = []
    for flat in counters:
        name = _name(flat)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_num(snap[flat])}")
    for flat in gauges:
        name = _name(flat)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_num(snap[flat])}")
    for dotted, h in snap.hist_items():
        lines.extend(_hist_lines(_name(dotted), h))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def start_metrics_server(port: int = 0, host: str = "127.0.0.1"):
    """Serve ``/metrics`` (and ``/flight``) on a daemon thread.

    Returns the live ``ThreadingHTTPServer`` — ``server.server_address[1]``
    is the bound port (pass ``port=0`` for an ephemeral one),
    ``server.shutdown()`` stops it.  The thread is a daemon: a process
    exit never hangs on the scrape endpoint.
    """
    # Imported here, with the handler that subclasses it: ``http.server``
    # pulls in http.client, email and ssl, which only this daemon needs
    # and every ``import repro`` would otherwise pay for.
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/") or "/metrics"
            if path == "/metrics":
                body = render_openmetrics().encode()
                ctype = CONTENT_TYPE
            elif path == "/flight":
                import io

                from repro.obs.flight import RECORDER

                buf = io.StringIO()
                RECORDER.dump(buf)
                body = buf.getvalue().encode()
                ctype = "application/x-ndjson; charset=utf-8"
            else:
                self.send_error(404)
                return
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # silence per-request stderr noise
            pass

    server = ThreadingHTTPServer((host, port), MetricsHandler)
    thread = threading.Thread(
        target=server.serve_forever,
        name="repro-metrics-server",
        daemon=True,
    )
    thread.start()
    return server
