"""Work-stealing task scheduler over GIL-releasing kernels.

Workers own a deque seeded with a contiguous slice of the task list (good
operand locality: neighbouring morsels touch neighbouring rows).  A worker
pops from the *front* of its own deque and, when empty, steals from the
*back* of the most loaded victim — the classic split between the owner's
hot end and the thieves' cold end.  Python threads suffice because the
tasks wrap NumPy/BLAS kernels that release the GIL; the queue operations
themselves are tiny relative to one morsel's GEMM.

Results are written into a slot-per-task output list, so the caller sees
input order no matter which worker ran what.  The *first* task exception
cancels outstanding work (every queue is drained so no worker can block
on doomed morsels) and is re-raised in the calling thread with its
original traceback.

Failure handling layers on top of that happy path without touching it:

* each task runs through an optional :class:`~repro.reliability.retry.BoundRetry`
  wrapper — tasks are pure morsels, so re-execution after a transient
  fault is bit-safe;
* a heartbeat watchdog (policy from
  :class:`~repro.reliability.watchdog.WatchdogPolicy`) detects workers
  that died abruptly or stalled past the tolerance, re-enqueues their
  claimed task, and respawns a replacement thread.  The main thread
  normally blocks on a completion event — the watchdog only polls while
  a worker is actually late, so an all-healthy run pays nothing;
* a final inline sweep executes any still-unfinished task on the caller
  thread, guaranteeing ``run()`` completes (or raises) even when every
  worker died and the respawn cap is spent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

from ..errors import JoinError, WorkerKilledFault
from ..reliability.faults import maybe_inject
from ..reliability.retry import BoundRetry
from ..reliability.watchdog import WatchdogPolicy

#: Consecutive inline worker-kill faults tolerated before giving up (the
#: inline sweep "respawns" by looping on the caller thread).
_INLINE_KILL_CAP = 8


class SchedulerStats:
    """Counters describing one scheduler run (for tests and reports)."""

    __slots__ = (
        "n_tasks",
        "n_workers",
        "steals",
        "retries",
        "watchdog_stalls",
        "worker_deaths",
        "worker_respawns",
        "reenqueued_tasks",
    )

    def __init__(self) -> None:
        self.n_tasks = 0
        self.n_workers = 0
        self.steals = 0
        self.retries = 0
        self.watchdog_stalls = 0
        self.worker_deaths = 0
        self.worker_respawns = 0
        self.reenqueued_tasks = 0


class WorkStealingScheduler:
    """Run a batch of indexed tasks on ``n_workers`` stealing threads."""

    def __init__(self, n_workers: int, *, work_stealing: bool = True) -> None:
        if n_workers < 1:
            raise JoinError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.work_stealing = work_stealing

    def run(
        self,
        tasks: Sequence[Callable[[], object]],
        *,
        stats: SchedulerStats | None = None,
        retry: BoundRetry | None = None,
        watchdog: WatchdogPolicy | None = None,
    ) -> list:
        """Execute every task; return results in task order.

        Args:
            tasks: pure callables (morsels); may be re-executed on
                transient failure or worker loss.
            stats: optional counter sink for this run.
            retry: optional per-query bound retry policy applied around
                every task execution.
            watchdog: optional stall/respawn policy; ``None`` (or a
                disabled policy) turns off stall detection, leaving only
                dead-worker recovery via the final inline sweep.
        """
        stats = stats if stats is not None else SchedulerStats()
        stats.n_tasks = len(tasks)
        n_workers = min(self.n_workers, max(len(tasks), 1))
        stats.n_workers = n_workers
        results: list = [None] * len(tasks)
        if not tasks:
            return results

        def attempt(index: int):
            maybe_inject("engine.worker")
            return tasks[index]()

        def execute(index: int):
            if retry is None:
                return attempt(index)
            return retry.call(lambda: attempt(index))

        def execute_inline(index: int):
            """Caller-thread execution that survives injected kills."""
            for _ in range(_INLINE_KILL_CAP):
                try:
                    return execute(index)
                except WorkerKilledFault:
                    stats.worker_deaths += 1
            return execute(index)  # cap spent: let the next kill raise

        if n_workers == 1:
            for i in range(len(tasks)):
                results[i] = execute_inline(i)
            if retry is not None:
                stats.retries += retry.local_retries
            return results

        # Seed each worker with a contiguous slice of the task order.
        bounds = [len(tasks) * w // n_workers for w in range(n_workers + 1)]
        queues = [
            deque(range(bounds[w], bounds[w + 1])) for w in range(n_workers)
        ]
        lock = threading.Lock()  # guards queues, done flags, live count
        failed = threading.Event()
        finish = threading.Event()  # set by the last live worker to exit
        errors: list[BaseException] = []
        done = bytearray(len(tasks))
        pending = len(tasks)
        live = n_workers
        retired: set[int] = set()  # slots told to stop (stalled workers)
        inflight: dict[int, int | None] = {}
        heartbeat: dict[int, float] = {}
        threads_by_slot: dict[int, threading.Thread] = {}
        next_slot = n_workers

        def next_index(home: int) -> int | None:
            with lock:
                if queues[home]:
                    return queues[home].popleft()
                if not self.work_stealing:
                    return None
                victim = max(range(n_workers), key=lambda w: len(queues[w]))
                if queues[victim]:
                    stats.steals += 1
                    return queues[victim].pop()
                return None

        def worker_loop(slot: int, home: int) -> None:
            nonlocal pending, live
            try:
                while not failed.is_set() and slot not in retired:
                    index = next_index(home)
                    if index is None:
                        return
                    inflight[slot] = index
                    heartbeat[slot] = time.monotonic()
                    try:
                        value = execute(index)
                    except WorkerKilledFault:
                        # Simulated abrupt death: exit without completing
                        # or releasing the claimed task.  Recovery is the
                        # watchdog's (or the final sweep's) job.
                        return
                    except BaseException as exc:
                        # Handed to the dispatching thread, which re-raises it.
                        with lock:
                            if not errors:
                                errors.append(exc)
                            # Release every queued morsel so no sibling
                            # can block on work that will be discarded.
                            for queue in queues:
                                queue.clear()
                        failed.set()
                        inflight[slot] = None
                        return
                    with lock:
                        if not done[index]:
                            done[index] = 1
                            results[index] = value
                            pending -= 1
                    inflight[slot] = None
            finally:
                with lock:
                    if slot in retired:
                        retired.discard(slot)  # already counted as gone
                    else:
                        live -= 1
                        if live == 0:
                            finish.set()

        def spawn(slot: int, home: int) -> None:
            thread = threading.Thread(
                target=worker_loop,
                args=(slot, home),
                name=f"repro-engine-{slot}",
                daemon=True,
            )
            threads_by_slot[slot] = thread
            thread.start()

        for w in range(n_workers):
            spawn(w, w)

        wd = watchdog if watchdog is not None and watchdog.enabled else None
        respawns_left = wd.max_respawns if wd is not None else 0

        def recover(slot: int, index: int | None, home: int) -> None:
            """Re-enqueue a lost worker's task and respawn if allowed."""
            nonlocal next_slot, respawns_left, live
            inflight[slot] = None
            if index is not None:
                with lock:
                    if not done[index]:
                        queues[home].append(index)
                        stats.reenqueued_tasks += 1
            if respawns_left > 0:
                respawns_left -= 1
                stats.worker_respawns += 1
                with lock:
                    live += 1
                spawn(next_slot, home)
                next_slot += 1

        while True:
            completed = finish.wait(wd.poll_s if wd is not None else None)
            if failed.is_set() or completed:
                break
            with lock:
                if pending == 0:
                    break
            now = time.monotonic()
            for slot, thread in list(threads_by_slot.items()):
                index = inflight.get(slot)
                if index is None:
                    continue
                home = slot % n_workers
                if not thread.is_alive():
                    stats.worker_deaths += 1
                    recover(slot, index, home)
                elif now - heartbeat.get(slot, now) > wd.stall_s:
                    stats.watchdog_stalls += 1
                    with lock:
                        if slot not in retired:
                            retired.add(slot)  # abandon: stop it, uncount it
                            live -= 1
                            if live == 0:
                                finish.set()
                    recover(slot, index, home)

        for slot, thread in threads_by_slot.items():
            if slot not in retired:
                thread.join(timeout=0.1)

        if retry is not None:
            stats.retries += retry.local_retries
        if errors:
            raise errors[0]

        # Final sweep: any task not completed by a worker (kill faults
        # with no respawn budget, watchdog disabled, ...) runs inline on
        # the caller thread so run() always terminates with full results.
        with lock:
            remaining = [i for i in range(len(tasks)) if not done[i]]
        for index in remaining:
            with lock:
                if done[index]:  # an abandoned worker got there first
                    continue
            value = execute_inline(index)
            with lock:
                if not done[index]:
                    done[index] = 1
                    results[index] = value
                    pending -= 1
        return results
