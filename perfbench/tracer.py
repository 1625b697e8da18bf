"""Span recorder wrapped around weierp from the outside.

install() replaces every attribute of every loaded ``weierp`` module that is
an original public function object (one wrapper per function, so names that
other modules bound at import, such as ``cm.wp_eval``, are wrapped too), plus
``RationalMap.__call__`` and ``DiscExtension.__post_init__``.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
summary() turns them into per-op layer metrics at the end of the run, and
dump() writes them out.

A span's self time is its duration minus the durations of its direct
children.  Spans are named ``<module>.<qualname>``, e.g. ``wp.wp_eval``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

WP_EVALS = ("wp.wp_eval", "wp.wp_prime_eval")
SUITES = (
    "differential_identity",
    "addition_law",
    "duplication_law",
    "second_derivative",
    "multiplication_maps",
    "bijection_roundtrip",
    "bijection_derivatives",
    "bijection_identity",
    "chain_rule",
)
CLI_COMMANDS = ("lattice", "eval", "verify", "disc")


def _short(module: str) -> str:
    return module.split(".", 1)[1] if "." in module else module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.points: set = set()
        self.op_points = 0
        self.cm_hits = 0
        self.disc_checked = 0
        self.disc_skipped = 0
        self.cli_span_command: dict[int, str] = {}

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names = tracer.span_name
            idx = len(names)
            names.append(nid)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer._stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return wrapper

    def per_op(self, run_op):
        """run_op, counting the distinct points each op evaluates wp or wp' at."""
        def traced_op(i):
            run_op(i)
            self.op_points += len(self.points)
            self.points.clear()

        return traced_op

    def _hooks(self) -> dict:
        def point(idx, args, kwargs, result):
            z = args[0] if args else kwargs["z"]
            lat = args[1] if len(args) > 1 else kwargs["lat"]
            self.points.add((complex(z), lat))

        def cm_hit(idx, args, kwargs, result):
            self.cm_hits += result is not None

        def disc_report(idx, args, kwargs, result):
            self.disc_checked += result.points_checked
            self.disc_skipped += result.skipped

        def cli_main(idx, args, kwargs, result):
            argv = args[0] if args else kwargs["argv"]
            self.cli_span_command[idx] = argv[0]

        return {
            "wp.wp_eval": point,
            "wp.wp_prime_eval": point,
            "lattice.detect_cm": cm_hit,
            "cm.verify_disc_extension": disc_report,
            "cli.main": cli_main,
        }

    def install(self) -> None:
        """Wrap the public functions of every loaded weierp module in place."""
        modules = [m for n, m in sys.modules.items() if n == "weierp" or n.startswith("weierp.")]
        hooks = self._hooks()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("weierp") or obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        from weierp.cm import DiscExtension
        from weierp.identities import RationalMap

        RationalMap.__call__ = self.wrap("identities.RationalMap.__call__", RationalMap.__call__)
        DiscExtension.__post_init__ = self.wrap(
            "cm.DiscExtension.__post_init__", DiscExtension.__post_init__
        )

    # -- results ----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        return name, parent, dur

    def dump(self, path: str) -> None:
        name, parent, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def _under(self, name, parent, ancestor_ids) -> np.ndarray:
        """Mask of spans that have an ancestor whose name id is in ancestor_ids."""
        valid = parent >= 0
        p = np.where(valid, parent, 0)
        hit = valid & np.isin(name, ancestor_ids)[p]
        while True:  # one more level of descendants per pass
            grown = hit | (valid & hit[p])
            if np.array_equal(grown, hit):
                return hit
            hit = grown

    def summary(self, ops: int) -> dict:
        """Per-layer metrics, counts and times per op, as {name: (value, unit)}."""
        name, parent, dur = self.arrays()
        n_names = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_t = dur - child[: len(dur)]
        calls = np.bincount(name, minlength=n_names)
        self_by = np.bincount(name, weights=self_t, minlength=n_names)
        incl_by = np.bincount(name, weights=dur, minlength=n_names)
        ops = max(ops, 1)

        def nid(n):
            return self._ids.get(n, -1)

        def c(n):
            return float(calls[nid(n)]) / ops if nid(n) >= 0 else 0.0

        def s(n):
            return float(self_by[nid(n)]) / ops if nid(n) >= 0 else 0.0

        out = {}
        for n in (
            "lattice.invariants_qseries", "lattice.detect_cm", "lattice.disc_points",
            "wp.wp_eval", "wp.wp_prime_eval", "wp.pole_distance", "wp.wp_direct_sum",
            "identities.RationalMap.__call__", "identities.multiplication_by_n",
            "cm.fit_multiplier_maps", "cm.disc_eval",
        ):
            out[f"{n}.calls"] = (c(n), "call/op")
            out[f"{n}.self_s"] = (s(n), "s/op")
        for n in ("lattice.ensure_reduced", "identities.addition_formula", "identities.duplication"):
            out[f"{n}.calls"] = (c(n), "call/op")
        for n in ("lattice.reduce_generators", "lattice.eisenstein_invariants",
                  "identities.division_polynomials", "cm.verify_disc_extension",
                  "interval_maps.chain_rule_check", "cli.main"):
            out[f"{n}.self_s"] = (s(n), "s/op")
        dc = c("lattice.detect_cm") * ops
        out["lattice.detect_cm.hit_ratio"] = (self.cm_hits / dc if dc else 0.0, "1")

        # a point is a distinct (z, lattice) pair within one op
        wp_ids = [nid(n) for n in WP_EVALS if nid(n) >= 0]
        n_points = self.op_points + len(self.points)
        wp_calls = sum(float(calls[i]) for i in wp_ids)
        wp_incl = sum(float(incl_by[i]) for i in wp_ids)
        out["wp.us_per_point"] = (1e6 * wp_incl / n_points if n_points else 0.0, "us")
        out["wp.evals_per_point"] = (wp_calls / n_points if n_points else 0.0, "1")

        is_wp = np.isin(name, wp_ids)
        fit = nid("cm.fit_multiplier_maps")
        under_fit = self._under(name, parent, [fit]) if fit >= 0 else np.zeros(len(name), bool)
        out["cm.fit_multiplier_maps.wp_calls"] = (float(np.sum(is_wp & under_fit)) / ops, "call/op")
        init = nid("cm.DiscExtension.__post_init__")
        out["cm.DiscExtension.init_s"] = (float(incl_by[init]) / ops if init >= 0 else 0.0, "s/op")
        total = self.disc_checked + self.disc_skipped
        out["cm.disc.skipped_ratio"] = (self.disc_skipped / total if total else 0.0, "1")

        im_ids = [i for i, n in enumerate(self.names) if n.startswith("interval_maps.")]
        out["interval_maps.calls"] = (float(np.sum(calls[im_ids])) / ops, "call/op")
        out["interval_maps.self_s"] = (float(np.sum(self_by[im_ids])) / ops, "s/op")

        for suite in SUITES:
            n = f"verify.suite_{suite}"
            out[f"{n}.self_s"] = (s(n), "s/op")
            sid = nid(n)
            under = self._under(name, parent, [sid]) if sid >= 0 else np.zeros(len(name), bool)
            out[f"{n}.wp_calls"] = (float(np.sum(is_wp & under)) / ops, "call/op")

        walls: dict[str, list[float]] = {cmd: [] for cmd in CLI_COMMANDS}
        for idx, cmd in self.cli_span_command.items():
            walls.setdefault(cmd, []).append(float(dur[idx]))
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.wall_s"] = (statistics.median(walls[cmd]) if walls[cmd] else 0.0, "s")

        for module in ("lattice", "wp", "identities", "cm", "verify", "cli"):
            ids = [i for i, n in enumerate(self.names) if n.startswith(module + ".")]
            out[f"{module}.self_s"] = (float(np.sum(self_by[ids])) / ops, "s/op")
        return out
