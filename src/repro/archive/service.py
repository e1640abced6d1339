"""A minimal stdlib HTTP endpoint over a result archive.

``repro-le serve --archive results.sqlite`` answers three GET routes
with JSON:

* ``/health`` — liveness plus the archive's run count;
* ``/stats`` — the archive summary
  (:meth:`repro.archive.store.ResultArchive.stats`);
* ``/query`` — the memoized query surface.  Parameters mirror the
  ``sweep``/``query`` CLI spelling: ``suite``, ``algorithms``
  (comma-separated), ``scenario``, ``adversary``, ``adversary_param``
  (repeatable), ``seeds`` and ``profile`` (``1``/``true`` computes the
  suite's expansion profiles; off by default, where the CLI's default
  is on).  Any other parameter, and a blank value of any of these
  (``algorithms=``), is answered with a 400 before anything is planned
  or run.  The response is
  the payload ``repro-le query --json`` writes
  (:meth:`repro.archive.query.QueryResult.payload`): the cache
  accounting (``report``), the per-cell measurement rows (``cells``)
  and the robustness curves (``curves``); a repeated query is served
  entirely from the archive (``report.simulated_cells == 0``).

``ThreadingHTTPServer`` + per-request SQLite connections keep this
dependency-free and safe for concurrent readers.  Concurrent requests
run in isolation: each request thread simulates its misses under its
own adversary, backend and span scopes (context-local, see
:func:`repro.core.faults.fault_scope`), so one client's fault model
never reaches another's runs or the archive records they write.  It is
an operational convenience for sharing an archive, not a hardened
public frontend.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union
from urllib.parse import parse_qs, parse_qsl, urlsplit

from ..core.errors import ReproError
from ..parallel.runner import SweepConfig
from .query import query_config
from .store import ResultArchive

__all__ = ["ArchiveHTTPServer", "make_server"]

#: the ``/query`` parameters; any other name is a client error, not a
#: default silently planned, simulated and archived
_QUERY_PARAMETERS = (
    "suite", "algorithms", "scenario", "adversary", "adversary_param", "seeds", "profile"
)


class ArchiveHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one archive path and one execution config."""

    #: threads may outlive a shutdown mid-request; daemon threads keep
    #: test processes from hanging on them
    daemon_threads = True

    def __init__(self, address, *, archive_path, config):
        self.archive_path = str(archive_path)
        self.config = config
        super().__init__(address, _ArchiveRequestHandler)


class _ArchiveRequestHandler(BaseHTTPRequestHandler):
    server: ArchiveHTTPServer

    # Keep-alive; no Nagle, so a body written after its headers is not held back.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        url = urlsplit(self.path)
        try:
            if url.path == "/health":
                self._respond(200, self._health())
            elif url.path == "/stats":
                self._respond(200, self._stats())
            elif url.path == "/query":
                self._respond(200, self._query(url.query))
            else:
                self._respond(
                    404,
                    {
                        "error": f"unknown path {url.path!r}",
                        "paths": ["/health", "/stats", "/query"],
                    },
                )
        except ReproError as error:
            self._respond(400, {"error": str(error)})
        except ValueError as error:
            self._respond(400, {"error": f"bad query parameter: {error}"})

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _health(self) -> Dict[str, object]:
        with ResultArchive(self.server.archive_path) as archive:
            runs = len(archive)
        return {
            "status": "ok",
            "archive": self.server.archive_path,
            "runs": runs,
        }

    def _stats(self) -> Dict[str, object]:
        with ResultArchive(self.server.archive_path) as archive:
            return archive.stats()

    def _query(self, query: str) -> Dict[str, object]:
        from .. import api

        # Names are checked with blank values kept: ``parse_qs`` drops
        # ``seed=`` and ``algorithms=``, which would otherwise slip past
        # as a default grid.
        pairs = parse_qsl(query, keep_blank_values=True)
        unknown = sorted({name for name, _ in pairs} - set(_QUERY_PARAMETERS))
        if unknown:
            raise ReproError(
                f"unknown /query parameter(s) {', '.join(unknown)}; accepted: "
                f"{', '.join(_QUERY_PARAMETERS)}"
            )
        blank = sorted({name for name, value in pairs if not value})
        if blank:
            raise ReproError(f"blank /query parameter(s) {', '.join(blank)}")
        params = parse_qs(query)
        profile = _single(params, "profile", "0")
        if profile not in ("0", "1", "true", "false"):
            raise ReproError(
                f"parameter 'profile' must be 0, 1, true or false, got {profile!r}"
            )
        algorithms = None
        if "algorithms" in params:
            algorithms = [
                name
                for raw in params["algorithms"]
                for name in raw.split(",")
                if name
            ]
        raw_seeds = _single(params, "seeds", "3")
        try:
            seeds = int(raw_seeds)
        except ValueError:
            raise ReproError(
                f"parameter 'seeds' must be an integer, got {raw_seeds!r}"
            ) from None
        specs, adversarial = api.plan_sweep(
            suite=_single(params, "suite", None),
            algorithms=algorithms,
            scenario=_single(params, "scenario", None),
            adversary=_single(params, "adversary", None),
            adversary_params=params.get("adversary_param"),
            seeds=seeds,
            collect_profile=profile in ("1", "true"),
        )
        answer = api.query(
            specs, archive=self.server.archive_path, config=self.server.config
        )
        return answer.payload(specs, adversarial)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _respond(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        # The default logger stamps wall-clock dates on stderr per
        # request; a query service embedded in tests and sweep scripts
        # stays quiet instead.
        pass


def _single(params: Dict[str, list], name: str, default: Optional[str]):
    values = params.get(name)
    if not values:
        return default
    if len(values) > 1:
        raise ReproError(f"parameter {name!r} given more than once")
    return values[0]


def make_server(
    *,
    archive: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8765,
    config: Optional[SweepConfig] = None,
) -> ArchiveHTTPServer:
    """Build (and bind, but not run) the archive HTTP server.

    The config is checked the way every ``/query`` would check it, and
    the archive is opened to validate its path and schema version, both
    before the socket accepts anything; ``port=0`` binds an ephemeral
    port (see ``server.server_address``).
    """
    config = query_config(config)
    with ResultArchive(archive):
        pass
    return ArchiveHTTPServer((host, port), archive_path=archive, config=config)
