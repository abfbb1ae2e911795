"""Outside-in instrumentation of polartrack.

Nothing under ``src/`` changes. Each wrapped name is replaced where a
polartrack module looks it up at call time (``polartrack.runner.plan``,
``polartrack.cli.read_episode``, ...), plus the ``World`` and
``TargetMemory`` methods, and put back afterwards.

* ``EpisodeTimer`` times each ``run_episode`` call and nothing else; the
  end-to-end runs use it.
* ``Tracer`` records a span per wrapped call (name, start, end, parent
  span, episode id) and exact counters at the same boundaries. Spans stay
  in memory until ``save``.

``run_bench`` with ``jobs > 1`` forks its pool after the wrappers are in
place, so workers inherit them. The wrapper around ``bench._run_one``
carries what a worker recorded back on the ``EpisodeResult`` it returns;
the parent takes it off again with ``collect``/``absorb``.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from reference import kernel

clock = time.perf_counter_ns


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _modules():
    from polartrack import bench, cli, episodes, memory, perception, runner, world

    return bench, cli, episodes, memory, perception, runner, world


class EpisodeTimer:
    """Wall time and step count of every episode, and the reference
    kernel's time around it in the same process (see reference.py)."""

    def __init__(self):
        # (episode ns, steps, ref s: mean kernel time before and after,
        #  kernel s spent after this episode)
        self.episodes: list[tuple[int, int, float, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        bench, _, _, _, _, runner, _ = _modules()
        episodes = self.episodes
        last = {}  # pid -> the kernel's latest time in that process, s

        def timed(fn):
            @functools.wraps(fn)
            def run_episode(*args, **kwargs):
                t0 = clock()
                log = fn(*args, **kwargs)
                t1 = clock()
                kernel()
                ref = (clock() - t1) / 1e9
                # a forked worker inherits the parent's entry; ignore it
                before = last.get(os.getpid(), ref)
                last.clear()
                last[os.getpid()] = ref
                episodes.append((t1 - t0, len(log.frames), (before + ref) / 2, ref))
                return log

            return run_episode

        run_one = bench._run_one

        @functools.wraps(run_one)
        def _run_one(args):
            n = len(episodes)
            result = run_one(args)
            result.perf_episodes = episodes[n:]
            del episodes[n:]
            return result

        p = self._patches
        p.set(bench, "run_episode", timed(bench.run_episode))
        # generate_dataset imports run_episode from the runner at call time
        p.set(runner, "run_episode", timed(runner.run_episode))
        p.set(bench, "_run_one", _run_one)

    def uninstall(self) -> None:
        self._patches.undo()

    def collect(self, results) -> list:
        """Episode timings of a ``run_bench`` call, in result order."""
        out = []
        for r in results:
            out.extend(getattr(r, "perf_episodes", ()))
        return out

    def take(self) -> list:
        """Episode timings recorded in this process since the last take."""
        out = list(self.episodes)
        self.episodes.clear()
        return out


# counters kept besides the per-span call counts
COUNTERS = (
    "los_calls",
    "los_distinct",
    "observe_valid",
    "update_blend",
    "frames_written",
    "bytes_written",
)

NO_EPISODE = -1


class Tracer:
    """Spans and counters recorded around the program's public calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, episode id)
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.los_keys: set = set()
        self.episode = NO_EPISODE
        self._next_episode = 0
        self.home_pid = os.getpid()
        self._owner_pid = self.home_pid
        self._plan_is_expert = False
        self._patches = Patches()

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.counts.setdefault(name, 0)
        return self._name_ids[name]

    def _new_episode(self) -> None:
        self._flush_los()
        self.episode = (os.getpid() << 24) | self._next_episode
        self._next_episode += 1

    def _flush_los(self) -> None:
        self.counts["los_distinct"] += len(self.los_keys)
        self.los_keys.clear()

    def span(self, name: str, fn, before=None, after=None, name_of=None):
        """Wrap ``fn`` in a span. ``before()`` runs ahead of the span,
        ``after(result, args)`` after it; ``name_of()`` picks the name id
        per call when one wrapped name serves two roles."""
        nid = self.name_id(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            i = name_of() if name_of is not None else nid
            counts[self.names[i]] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            episode = self.episode
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (i, t0, t1, parent, episode)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        bench, cli, episodes, memory, perception, runner, world = _modules()
        p = self._patches
        counts = self.counts
        for key in COUNTERS:
            counts.setdefault(key, 0)

        def root():
            self.episode = NO_EPISODE

        expert = self.name_id("policy.plan_expert")
        agent = self.name_id("policy.plan_agent")

        def mark_expert():
            self._plan_is_expert = True

        def plan_name():
            # run_episode plans for the expert right after the view flags,
            # then for the agent
            if self._plan_is_expert:
                self._plan_is_expert = False
                return expert
            return agent

        def observed(out, args):
            grid = args[3]
            if out.token != grid.invalid_index:
                counts["observe_valid"] += 1

        def updated(new, args):
            old = args[0]
            if new.slots is old.slots:
                return
            if old.slots is None or not np.array_equal(new.slots, old.slots):
                counts["update_blend"] += 1

        def written(_, args):
            log, path = args[0], args[1]
            counts["frames_written"] += len(log.frames)
            counts["bytes_written"] += os.path.getsize(path)

        s = self.span
        p.set(bench, "run_bench", s("bench.run_bench", bench.run_bench, before=root))
        p.set(bench, "make_scenario", s("scenarios.make_scenario", bench.make_scenario,
                                         before=self._new_episode))
        p.set(bench, "run_episode", s("runner.run_episode", bench.run_episode))
        p.set(bench, "_run_one", self._shipping(bench._run_one))

        p.set(runner, "run_episode", s("runner.run_episode", runner.run_episode))
        p.set(runner, "annotate_frame", s("episodes.annotate", runner.annotate_frame))
        p.set(runner, "view_visibility", s("episodes.view_flags", runner.view_visibility,
                                           after=lambda *_: mark_expert()))
        p.set(runner, "plan", s("policy.plan_agent", runner.plan, name_of=plan_name))
        p.set(runner, "observe", s("perception.observe", runner.observe, after=observed))
        p.set(runner, "confidence", s("gating.confidence", runner.confidence))
        p.set(runner, "update_memory", s("memory.update", runner.update_memory, after=updated))
        p.set(runner, "nearest_detection",
              s("perception.nearest_detection", runner.nearest_detection))
        p.set(runner, "plan_from_polar", s("policy.plan_from_polar", runner.plan_from_polar))
        p.set(runner, "execute_first", s("policy.execute", runner.execute_first))
        p.set(runner, "advance_hold", s("policy.execute", runner.advance_hold))
        p.set(runner, "score_episode", s("metrics.score", runner.score_episode))

        p.set(perception, "memory_similarity",
              s("memory.similarity", perception.memory_similarity))

        p.set(episodes, "generate_dataset",
              s("episodes.generate_dataset", episodes.generate_dataset, before=root))
        p.set(episodes, "make_scenario", s("scenarios.make_scenario", episodes.make_scenario,
                                            before=self._new_episode))
        p.set(episodes, "write_episode", s("episodes.write", episodes.write_episode,
                                            after=written))

        p.set(cli, "main", s("cli.main", cli.main, before=root))
        p.set(cli, "read_episode", s("episodes.read", cli.read_episode,
                                      before=self._new_episode))
        p.set(cli, "plan", s("policy.replay_plan", cli.plan))
        p.set(cli, "execute_first", s("policy.replay_plan", cli.execute_first))
        p.set(cli, "advance_hold", s("policy.replay_plan", cli.advance_hold))
        p.set(cli, "traj_loss", s("metrics.traj_loss", cli.traj_loss))
        p.set(cli, "reason_loss", s("metrics.reason_loss", cli.reason_loss))

        World, TargetMemory = world.World, memory.TargetMemory
        p.set(World, "step", s("world.step", World.step))
        p.set(World, "line_of_sight", self._counting_los(World.line_of_sight))
        p.set(TargetMemory, "digest", s("memory.digest", TargetMemory.digest))

    def uninstall(self) -> None:
        self._patches.undo()
        self._flush_los()

    def _counting_los(self, fn):
        keys, counts = self.los_keys, self.counts

        @functools.wraps(fn)
        def line_of_sight(world, a, b):
            counts["los_calls"] += 1
            keys.add((world.step_index, a[0], a[1], b[0], b[1]))
            return fn(world, a, b)

        return line_of_sight

    def _shipping(self, fn):
        """``bench._run_one`` that hands a worker's spans and counts back
        to the parent on the result it returns."""

        @functools.wraps(fn)
        def _run_one(args):
            if os.getpid() == self.home_pid:
                return fn(args)
            if self._owner_pid != os.getpid():
                # first task in a forked worker: drop the copy of the
                # parent's buffers
                self._owner_pid = os.getpid()
                self.spans.clear()
                self.stack.clear()
                self.los_keys.clear()
                for k in self.counts:
                    self.counts[k] = 0
            result = fn(args)
            self._flush_los()
            result.perf_trace = (list(self.spans), dict(self.counts))
            self.spans.clear()
            for k in self.counts:
                self.counts[k] = 0
            return result

        return _run_one

    def absorb(self, results) -> None:
        """Merge what pool workers shipped back into this process's spans
        and counters."""
        for r in results:
            shipped = getattr(r, "perf_trace", None)
            if shipped is None:
                continue
            spans, counts = shipped
            off = len(self.spans)
            self.spans.extend(
                (i, t0, t1, parent + off if parent >= 0 else -1, ep)
                for i, t0, t1, parent, ep in spans
            )
            for k, v in counts.items():
                self.counts[k] = self.counts.get(k, 0) + v

    def snapshot(self) -> dict:
        self._flush_los()
        return dict(self.counts)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        a = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {
            "name": a[:, 0],
            "start_ns": a[:, 1],
            "end_ns": a[:, 2],
            "parent": a[:, 3],
            "episode": a[:, 4],
        }

    def self_times(self) -> dict:
        """Per span name: total self time in ns. Self time is a span's
        duration minus its child spans' durations."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        return {
            name: float(own[a["name"] == i].sum()) for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(json.dumps(self.names)), **a)
