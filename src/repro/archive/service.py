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

``ThreadingHTTPServer`` keeps this dependency-free.  A request pays for
its runs, not for set-up: one archive connection per HTTP connection;
suites built and grids planned once per server.  Each keep-alive
connection opens its own SQLite handle on first use, which checks the
schema version, and closes the handle when the connection ends.  A
handle whose file changed since the connection's last request
(rewritten in place or replaced) is reopened, and so checked again:
SQLite alone keeps serving cached pages of a rewrite whose header
matches.  Each named suite's topologies are built once and shared by
every request, so their fingerprints and ``t_mix``/Φ memos survive from
one request to the next.  Each served grid — the normalized ``/query``
parameters — is planned once into its specs, whose run tasks are
expanded once (:func:`~repro.parallel.sharding.expand_run_tasks`); the
server keeps the last :data:`PLAN_LIMIT` grids.  It keeps plans, never
answers: every request reads the archive, and simulates and archives
its misses.  Concurrent requests run in isolation: each request thread
simulates its misses under its own adversary, backend and span scopes
(context-local, see :func:`repro.core.faults.fault_scope`), so one
client's fault model never reaches another's runs or the archive
records they write.  It is an operational convenience for sharing an
archive, not a hardened public frontend.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from ..analysis.experiments import ExperimentSpec
from ..core.errors import ReproError
from ..graphs.topology import Topology
from ..parallel.runner import SweepConfig
from ..workloads import DEFAULT_SUITE, suite_by_name
from .query import query_config
from .store import ResultArchive

__all__ = ["ArchiveHTTPServer", "make_server"]

#: the ``/query`` parameters; any other name is a client error, not a
#: default silently planned, simulated and archived
_QUERY_PARAMETERS = (
    "suite", "algorithms", "scenario", "adversary", "adversary_param", "seeds", "profile"
)

#: most planned grids a server keeps; planning one more drops the oldest
PLAN_LIMIT = 64


class ArchiveHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one archive path and one execution config."""

    #: threads may outlive a shutdown mid-request; daemon threads keep
    #: test processes from hanging on them
    daemon_threads = True

    def __init__(self, address, *, archive_path, config):
        self.archive_path = str(archive_path)
        self.config = config
        #: suite name -> its topologies, built on the first request naming it
        self.suites: Dict[str, Tuple[Topology, ...]] = {}
        #: (suite, *sorted grid parameters) -> the grid's plan, oldest
        #: first, at most :data:`PLAN_LIMIT`
        self.plans: Dict[tuple, Tuple[Tuple[ExperimentSpec, ...], bool]] = {}
        self._plans_lock = threading.Lock()
        super().__init__(address, _ArchiveRequestHandler)

    def suite(self, name: str) -> Tuple[Topology, ...]:
        """The topologies of the suite ``name``, built once per server.

        An unknown name raises before anything is stored.  Two requests
        that miss at once may both build; the first stored is the one
        every later request plans with.
        """
        topologies = self.suites.get(name)
        if topologies is None:
            topologies = self.suites.setdefault(name, tuple(suite_by_name(name)))
        return topologies

    def plan(self, suite: str, **grid) -> Tuple[Tuple[ExperimentSpec, ...], bool]:
        """:func:`repro.api.plan_sweep` of ``suite`` and ``grid``, once per server.

        ``grid`` holds the other keyword arguments, as hashable values.
        A grid that fails to plan raises before anything is stored.  Two
        requests that miss at once may both plan; the first stored is the
        one every later request answers with, so they share its specs and
        the run tasks each spec expands once.  Storing a grid beyond
        :data:`PLAN_LIMIT` drops the oldest.
        """
        key = (suite, *sorted(grid.items()))
        plan = self.plans.get(key)
        if plan is None:
            from .. import api

            specs, adversarial = api.plan_sweep(topologies=self.suite(suite), **grid)
            with self._plans_lock:
                plan = self.plans.setdefault(key, (tuple(specs), adversarial))
                while len(self.plans) > PLAN_LIMIT:
                    del self.plans[next(iter(self.plans))]
        return plan


class _ArchiveRequestHandler(BaseHTTPRequestHandler):
    server: ArchiveHTTPServer

    # Keep-alive; no Nagle, so a body written after its headers is not held back.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    #: this connection's archive handle, opened on first use
    _archive: Optional[ResultArchive] = None
    #: the archive file's state when this connection last used the handle
    _seen: Optional[Tuple[int, ...]] = None

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

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            if self._archive is not None:
                self._archive.close()
                self._archive = None

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    @contextmanager
    def _opened_archive(self) -> Iterator[ResultArchive]:
        """This connection's archive handle, reopened if its file changed.

        Opening checks the schema; a handle whose file is as this
        connection left it is not checked again.
        """
        path = self.server.archive_path
        if self._archive is not None and _file_state(path) != self._seen:
            self._archive.close()
            self._archive = None
        if self._archive is None:
            self._archive = ResultArchive(path)
        try:
            yield self._archive
        finally:
            # The handle's own writes are not a change to reopen for.
            self._seen = _file_state(path)

    def _health(self) -> Dict[str, object]:
        with self._opened_archive() as archive:
            runs = len(archive)
        return {
            "status": "ok",
            "archive": self.server.archive_path,
            "runs": runs,
        }

    def _stats(self) -> Dict[str, object]:
        with self._opened_archive() as archive:
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
        # What ``parse_qs`` would build: no value is blank.
        params: Dict[str, list] = {}
        for name, value in pairs:
            params.setdefault(name, []).append(value)
        profile = _single(params, "profile", "0")
        if profile not in ("0", "1", "true", "false"):
            raise ReproError(
                f"parameter 'profile' must be 0, 1, true or false, got {profile!r}"
            )
        algorithms = None
        if "algorithms" in params:
            algorithms = tuple(
                name
                for raw in params["algorithms"]
                for name in raw.split(",")
                if name
            )
        raw_seeds = _single(params, "seeds", "3")
        try:
            seeds = int(raw_seeds)
        except ValueError:
            raise ReproError(
                f"parameter 'seeds' must be an integer, got {raw_seeds!r}"
            ) from None
        adversary_params = params.get("adversary_param")
        specs, adversarial = self.server.plan(
            _single(params, "suite", DEFAULT_SUITE),
            algorithms=algorithms,
            scenario=_single(params, "scenario", None),
            adversary=_single(params, "adversary", None),
            adversary_params=None if adversary_params is None else tuple(adversary_params),
            seeds=seeds,
            collect_profile=profile in ("1", "true"),
        )
        with self._opened_archive() as archive:
            answer = api.query(specs, archive=archive, config=self.server.config)
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


def _file_state(path: str) -> Optional[Tuple[int, ...]]:
    """What changes whenever ``path`` is written or replaced; ``None`` if absent."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns)


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
