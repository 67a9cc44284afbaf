"""Measurement plumbing of the perf harness: metric records, the span
recorder, validity guards and ``/proc`` readers.

Nothing here imports ``repro`` except the shared nearest-rank
``percentile``; the guards are pure functions over collected numbers so
the smoke test can feed them doctored inputs.
"""

import json
import os
import time

from repro.serving import percentile

CLOCK = time.perf_counter

# Open-loop validity limits (ISSUE: below these the phase measured the
# load generator or a growing queue, not the server).
MIN_ACHIEVED_SHARE = 0.97
MAX_LATE_P99_MS = 5.0
MIN_TOKEN_MATCH = 0.99


class InvalidRun(RuntimeError):
    """The measurement is not trustworthy (saturated open loop, late
    generator, token mismatch); the run reports no numbers."""


class IncorrectOutput(RuntimeError):
    """The program under test returned a wrong result or leaked a
    resource."""


class Metric:
    """One named number with its unit and the sample count behind it."""

    def __init__(self, name, value, unit, samples=1, note=""):
        self.name = name
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)
        self.note = note

    def __repr__(self):
        return "Metric(%s=%.6g %s, n=%d)" % (self.name, self.value,
                                             self.unit, self.samples)


def p50(values):
    return percentile(values, 50)


def p95(values):
    return percentile(values, 95)


def p99(values):
    return percentile(values, 99)


# ----------------------------------------------------------------------
# Validity guards
# ----------------------------------------------------------------------

def check_open_loop(name, offered_per_s, completed_in_window, window_s,
                    late_ms, outstanding):
    """Raise :class:`InvalidRun` unless an open-loop phase kept up.

    ``outstanding`` is the in-flight count sampled at every send, in
    send order; "still growing at the end" compares its last fifth with
    its middle three fifths, with slack for one batch of jitter.
    """
    achieved = completed_in_window / window_s
    if achieved < MIN_ACHIEVED_SHARE * offered_per_s:
        raise InvalidRun(
            "%s: achieved %.1f/s is below %.2f x offered %.1f/s"
            % (name, achieved, MIN_ACHIEVED_SHARE, offered_per_s))
    late = p99(late_ms)
    if late > MAX_LATE_P99_MS:
        raise InvalidRun("%s: load generator ran %.2f ms late at p99 "
                         "(limit %.1f ms)" % (name, late, MAX_LATE_P99_MS))
    n = len(outstanding)
    if n >= 10:
        middle = outstanding[n // 5: 4 * n // 5]
        tail = outstanding[4 * n // 5:]
        mid_mean = sum(middle) / len(middle)
        tail_mean = sum(tail) / len(tail)
        if tail_mean > 1.5 * mid_mean + 32:
            raise InvalidRun(
                "%s: outstanding requests still growing at the end "
                "(mean %.1f in the last fifth vs %.1f mid-phase)"
                % (name, tail_mean, mid_mean))
    return achieved


def check_token_match(name, streams, references):
    """Token-level match rate of ``streams`` against ``references``
    (parallel lists of token lists); returns ``(matched, total,
    wrong_streams)`` and raises :class:`InvalidRun` below the limit."""
    matched = total = wrong = 0
    for got, want in zip(streams, references):
        total += len(want)
        same = sum(1 for a, b in zip(got, want) if a == b)
        matched += same
        if same != len(want) or len(got) != len(want):
            wrong += 1
    if total and matched / total < MIN_TOKEN_MATCH:
        raise InvalidRun("%s: token match rate %d/%d is below %.2f"
                         % (name, matched, total, MIN_TOKEN_MATCH))
    return matched, total, wrong


# ----------------------------------------------------------------------
# Span recorder (the harness's own; spans inside src/ are a later issue)
# ----------------------------------------------------------------------

class Recorder:
    """In-memory spans around the calls the harness makes.

    A span is ``[name, start, end, parent, rid]``: ``parent`` is the
    index of the span that caused it (or ``None``), ``rid`` the request
    or session id shared by one operation's spans. ``add`` records a
    finished span; ``begin``/``finish`` bracket one whose children are
    recorded while it is open. Both return the span's index so a caller
    can parent children on it.
    """

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, rid=None):
        self.spans.append([name, start, end, parent, rid])
        return len(self.spans) - 1

    def begin(self, name, parent=None, rid=None):
        return self.add(name, CLOCK(), None, parent, rid)

    def finish(self, index):
        self.spans[index][2] = CLOCK()

    def self_times(self):
        """``{name: [self seconds per span]}``: a span's duration minus
        the part of it its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out.setdefault(name, []).append(max(0.0, end - start - child))
        return out

    def totals(self):
        """``{name: (count, total seconds, total self seconds)}``."""
        self_times = self.self_times()
        out = {}
        for name, start, end, _, _ in self.spans:
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + end - start)
        return {name: (count, total, sum(self_times[name]))
                for name, (count, total) in out.items()}

    def write_chrome_trace(self, path):
        """Chrome-trace JSON: one complete (``X``) event per span, the
        request/session id as ``tid`` so one operation reads as a row."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = []
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 0,
                "tid": 0 if rid is None else int(rid),
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def pss_mb(pids):
    """Proportional set size summed over ``pids`` (shared plan segments
    are split between the processes mapping them, so the sum does not
    double-count)."""
    total_kb = 0
    for pid in pids:
        with open("/proc/%d/smaps_rollup" % pid) as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds(pid):
    """User + system CPU seconds consumed so far by ``pid``."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def child_pids(pid):
    """Every live, non-zombie descendant of ``pid`` (a scan of
    ``/proc/*/stat``: the per-task ``children`` file is not built into
    every kernel)."""
    kids = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z":
            kids.setdefault(int(fields[1]), []).append(int(entry))
    out = []
    frontier = [pid]
    while frontier:
        found = kids.get(frontier.pop(), [])
        out.extend(found)
        frontier.extend(found)
    return out


def become_subreaper():
    """Make this process the reaper of every orphaned descendant
    (``prctl(PR_SET_CHILD_SUBREAPER)``): a grandchild whose parent exits
    first — a worker, a multiprocessing resource tracker — is handed to
    this process instead of to init, so :func:`reap_descendants` sees it
    and can wait for it. Returns whether the kernel accepted."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker():
    """Stop this process's multiprocessing resource tracker, if it has
    one, and wait until it has ended (it otherwise outlives the process
    by the few milliseconds it takes to notice the closed pipe)."""
    import sys
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is not None:
        try:
            module._resource_tracker._stop()
        except (OSError, ChildProcessError):
            pass


def reap_descendants(grace_s=5.0):
    """Wait until this process has no descendant left, live or zombie.
    Whatever is still alive after ``grace_s`` is killed; returns the
    pids that had to be (a leak: an empty list is the only good answer)."""
    def collect_zombies():
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass

    killed = []
    deadline = time.monotonic() + grace_s
    while True:
        alive = child_pids(os.getpid())
        collect_zombies()  # after the scan: whoever it missed is a zombie
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for pid in alive:
                if pid not in killed:
                    killed.append(pid)
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def mapped_shm(pids):
    """Names of the ``/dev/shm`` segments ``pids`` have mapped."""
    names = set()
    for pid in pids:
        try:
            with open("/proc/%d/maps" % pid) as handle:
                for line in handle:
                    path = line.rstrip("\n").rsplit(None, 1)[-1]
                    if path.startswith("/dev/shm/"):
                        names.add(os.path.basename(path))
        except (FileNotFoundError, ProcessLookupError):
            pass
    return names


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
