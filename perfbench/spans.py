"""Call spans recorded around the simulator's public functions, from outside.

A `Tracer` replaces chosen functions and methods of the `adhocloc` modules
with wrappers that record one span per call: the function's name, its start
and end on `time.perf_counter`, the span that was open when it was called
(its parent) and the scenario run it belongs to. Nothing under `src/` is
edited; `uninstall` puts the originals back.

Spans live in flat arrays while the run goes on and are written out once at
the end. A span's self time is its duration minus the time its child spans
cover, so nested wrappers (`unicast` contains `snapshot`, which contains
`positions`) are not counted twice and the self times of every span inside
a scenario run add up to that run's duration.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

#: span name of one scenario run; the run id changes on entering it
SCENARIO = "scenario.run_scenario"
#: span name of the event loop inside a scenario run
LOOP = "engine.run_until"

#: (span name, module, owner inside the module or None, attribute)
#: `owner` None means a module-level function, patched where its callers look
#: it up: `run_scenario` in `sweep`, `build_report` and `network_mobility` in
#: `scenario`, because those modules import them by name.
LIGHT_TARGETS = (
    (SCENARIO, "adhocloc.sweep", None, "run_scenario"),
    (LOOP, "adhocloc.engine", "Engine", "run_until"),
)
FULL_TARGETS = LIGHT_TARGETS + (
    ("engine.schedule", "adhocloc.engine", "Engine", "schedule"),
    ("mobility.model_init", "adhocloc.mobility", "RandomWaypointModel", "__init__"),
    ("mobility.positions", "adhocloc.mobility", "RandomWaypointModel", "positions"),
    ("mobility.positions_block", "adhocloc.mobility", "RandomWaypointModel", "positions_block"),
    ("mobility.network_mobility", "adhocloc.scenario", None, "network_mobility"),
    ("kernels.positions_at", "adhocloc.kernels", None, "positions_at"),
    ("kernels.positions_block", "adhocloc.kernels", None, "positions_block"),
    ("kernels.adjacency", "adhocloc.kernels", None, "adjacency"),
    ("kernels.bfs_tree", "adhocloc.kernels", None, "bfs_tree"),
    ("kernels.separation_series", "adhocloc.kernels", None, "separation_series"),
    ("radio.snapshot", "adhocloc.radio", "Radio", "snapshot"),
    ("radio.neighbors", "adhocloc.radio", "Radio", "neighbors"),
    ("radio.in_range", "adhocloc.radio", "Radio", "in_range"),
    ("radio.connected", "adhocloc.radio", "Radio", "connected"),
    ("radio.diameter", "adhocloc.radio", "Radio", "diameter"),
    ("radio.route", "adhocloc.radio", "Radio", "route"),
    ("radio.unicast", "adhocloc.radio", "Radio", "unicast"),
    ("radio.direct", "adhocloc.radio", "Radio", "direct"),
    ("radio.flood", "adhocloc.radio", "Radio", "flood"),
    ("radio.flood_path", "adhocloc.radio", "Radio", "flood_path"),
    ("ledger.charge", "adhocloc.radio", "MessageLedger", "charge"),
    ("ledger.recount", "adhocloc.radio", "MessageLedger", "recount"),
    ("ledger.units_for_request", "adhocloc.radio", "MessageLedger", "units_for_request"),
    ("metrics.build_report", "adhocloc.scenario", None, "build_report"),
    ("sweep.run_sweep", "adhocloc.sweep", None, "run_sweep"),
    ("sweep.write_csv", "adhocloc.sweep", None, "write_csv"),
)


class Tracer:
    """Records spans around the targets while installed.

    `full=False` wraps only the scenario run and its event loop, which is
    enough to split each run into set-up, loop and finalize at two spans per
    run; `full=True` wraps every target above.
    """

    def __init__(self, full: bool):
        self.targets = FULL_TARGETS if full else LIGHT_TARGETS
        self.names = [name for name, _, _, _ in self.targets]
        self.missing: list[str] = []
        self.name_id = array("h")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.unicast_delivered = 0
        self._stack: list[int] = []
        self._run = -1
        self._next_run = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for idx, (name, module_name, owner_name, attr) in enumerate(self.targets):
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(idx, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, idx: int, name: str, fn):
        name_id, parent, run, start, end = (self.name_id, self.parent, self.run,
                                            self.start, self.end)
        stack = self._stack
        tracer = self
        opens_run = name == SCENARIO
        counts_delivery = name == "radio.unicast"

        def wrapper(*args, **kwargs):
            span = len(start)
            if opens_run:
                tracer._run = tracer._next_run
                tracer._next_run += 1
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer._run)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
                if opens_run:
                    tracer._run = -1
            if counts_delivery and result is not None:
                tracer.unicast_delivered += 1
            return result

        return wrapper

    # -- reading the spans ---------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, excluded=()) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and self
        seconds inside scenario runs.

        Also the self seconds of all spans inside scenario runs, summed, next
        to the summed duration of the scenario runs themselves; the two agree
        when every child span lies inside its parent. Time inside the
        `excluded` (start, end) intervals is taken out of every span.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        for lo, hi in excluded:
            dur -= np.clip(np.minimum(a["end"], hi) - np.maximum(a["start"], lo), 0.0, None)
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        in_run = a["run"] >= 0
        run_self_s = np.bincount(a["name"][in_run], weights=own[in_run], minlength=k)
        per_name = {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                           "self_s": float(self_s[i]), "run_self_s": float(run_self_s[i])}
                    for i, name in enumerate(self.names)}
        scenario = a["name"] == self.names.index(SCENARIO)
        return {
            "per_name": per_name,
            "spans": int(dur.size),
            "scenario_wall_s": float(dur[scenario].sum()),
            "in_run_self_s": float(own[in_run].sum()),
        }

    def run_phases(self) -> list[tuple[float, float, float, float]]:
        """(enter, loop start, loop end, leave) of each scenario run, in run
        order, on `perf_counter`. Set-up runs from entering `run_scenario` to
        entering the event loop, finalize from leaving the loop to leaving
        `run_scenario`. A run that never reached its loop is left out.
        """
        a = self.arrays()
        loops = {}
        for i in np.nonzero(a["name"] == self.names.index(LOOP))[0]:
            loops.setdefault(int(a["run"][i]), int(i))
        phases = []
        for i in np.nonzero(a["name"] == self.names.index(SCENARIO))[0]:
            loop = loops.get(int(a["run"][i]))
            if loop is not None:
                phases.append((float(a["start"][i]), float(a["start"][loop]),
                               float(a["end"][loop]), float(a["end"][i])))
        return phases

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
