"""One round of one workload, in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload ring-ladder --seed 1 --mode run
    python3 bench/worker.py --digest > bench/verify_default.sha256

Modes: ``setup`` imports deltan and does the workload's set-up only; ``run``
adds the timed section and the checks; ``trace`` is ``run`` with every public
deltan function wrapped in spans (see spans.py).  ``--digest`` prints the
SHA-256 of the default ``verify --json`` report, which is what
``verify_default.sha256`` holds; regenerate it that way when a change alters
the report on purpose.

The result line carries setup_s (import plus set-up), wall_s (the timed
section), peak_rss_mb, the operations attempted and failed, per-operation
latencies, and the errors the checks found (an empty list means correct).
Every time in it is scaled to the reference speed: divided by how many times
slower than the reference the machine ran while it was measured (see
Calibrator).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGEST_FILE = BENCH / "verify_default.sha256"
SELFTESTS = ("selftest-z6-all-n-ideals", "selftest-z12-nilradical-prime")
# a calibration sample: CAL_LOOP turns of a fixed arithmetic loop, which take
# CAL_REF_S at the reference speed (near the fastest a 2-CPU shared VM ran)
CAL_LOOP = 8000
CAL_REF_S = 0.0005
CAL_EVERY_S = 0.05     # timed section: a sample at the first boundary this late
CAL_WINDOW = 5          # an operation's latency: the samples this near it
CAL_SETUP_SAMPLES = 10  # set-up: this many samples before it and after it

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

clock = time.perf_counter


class Calibrator:
    """How fast the machine runs, from a fixed loop timed now and then.

    On a shared machine the same work takes up to half as long again in a
    slow minute as in a fast one, and the slow phases outlast a round.  A
    sample taken every CAL_EVERY_S at an operation boundary of the timed
    section slows down with the work around it.  A time is divided by a
    mean sample over CAL_REF_S: the mean of all of them for a whole section,
    the mean of the 2 * CAL_WINDOW samples nearest to an operation for its
    latency, since the load also changes within a second.  Samples are not
    part of any operation's latency, and their time is taken out of wall_s.
    """

    def __init__(self):
        self.samples = array.array("d")
        self.done = []  # operations completed when each sample was taken
        self.last = clock()

    def sample(self):
        start = clock()
        x = 0
        for i in range(CAL_LOOP):
            x += i * i % 7
        self.last = clock()
        self.samples.append(self.last - start)

    def tick(self, now, done):
        """At a boundary after `done` operations: sample if the last is old enough."""
        if now - self.last >= CAL_EVERY_S:
            self.sample()
            self.done.append(done)

    def speed(self):
        """How many times slower than the reference the machine ran."""
        return statistics.fmean(self.samples) / CAL_REF_S

    def local_speeds(self, count):
        """The speed around each of operations 0 .. count-1, from the samples
        nearest the first sample taken after it."""
        if not self.done:
            return [self.speed()] * count
        prefix = [0.0]
        for x in self.samples[:len(self.done)]:
            prefix.append(prefix[-1] + x)
        out, i, n = [], 0, len(self.done)
        for op in range(count):
            while i < n - 1 and self.done[i] <= op:
                i += 1
            lo, hi = max(0, i - CAL_WINDOW), min(n, i + CAL_WINDOW)
            out.append((prefix[hi] - prefix[lo]) / (hi - lo) / CAL_REF_S)
        return out


def import_deltan():
    """Import deltan from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import deltan
    if src not in Path(deltan.__file__).resolve().parents:
        raise SystemExit(f"deltan was imported from {deltan.__file__}, not from {src}")
    for layer in spans.LAYERS:
        importlib.import_module(f"deltan.{layer}")
    return deltan


# ---------------------------------------------------------------------------
# the finite-ring rule
# ---------------------------------------------------------------------------
# In a finite local ring every non-nilpotent element is a unit, so every proper
# ideal is delta-n for every expansion.  Otherwise an idempotent e != 0, 1 has
# e(1-e) = 0 in I with neither factor nilpotent, which forces e and 1-e, and
# so 1, into delta(I): a proper I is delta-n iff delta(I) is the whole ring.
# delta(I) is known apart for d0 (I, proper), d1 (sqrt I, proper) and full
# (the ring); for the other kinds the rule reads the program's table value.

def rule_expects(local, kind, value_is_whole_ring):
    if local:
        return True
    if kind in ("d0", "delta0", "d1", "delta1"):
        return False
    if kind == "full":
        return True
    return value_is_whole_ring()


def table_is_local(ring):
    """No idempotent other than 0 and 1, read off the multiplication table."""
    mul = ring.mul
    return sum(1 for i in range(ring.size) if mul[i][i] == i) == 2


# ---------------------------------------------------------------------------
# verify-default
# ---------------------------------------------------------------------------

class VerifyDefault:
    """run_claims() on the default corpus, then both renderings."""

    def setup(self, deltan, seed):
        self.d = deltan
        self.corpus = deltan.verifier.builtin_corpus()

    def run(self, cal):
        verifier = self.d.verifier
        durations = array.array("d")  # 8 bytes a verdict, not a float object
        checkers = verifier.CHECKERS
        originals = dict(checkers)

        def timed(checker):
            # one latency per verdict: the checker's time to yield it, not
            # the time run_claims spends counting the previous one
            def wrapper(ctx):
                start = clock()
                for verdict in checker(ctx):
                    now = clock()
                    durations.append(now - start)
                    cal.tick(now, len(durations))
                    yield verdict
                    start = clock()
            return wrapper

        for claim_id, checker in originals.items():
            checkers[claim_id] = timed(checker)
        try:
            self.reports = verifier.run_claims(corpus=self.corpus)
            self.text = verifier.render_text(self.reports)
            self.json = verifier.render_json(self.reports)
        finally:
            checkers.update(originals)
        self.latencies = durations
        return sum(r.instances_checked for r in self.reports) + 2

    def check(self):
        d, errors = self.d, []
        for rep in self.reports:
            if rep.failed:
                errors.append(f"{rep.claim_id}: {rep.failed} failures")
            if rep.holds + rep.hypothesis_not_met + rep.failed != rep.instances_checked:
                errors.append(f"{rep.claim_id}: counts do not add up")
        if not self.text.endswith("total failures: 0\n"):
            errors.append("text report does not end with zero failures")
        digest = hashlib.sha256(self.json.encode("utf-8")).hexdigest()
        expected = DIGEST_FILE.read_text(encoding="utf-8").split()[0]
        if digest != expected:
            errors.append(f"render_json digest {digest} != committed {expected}")
        for rep in d.verifier.run_claims(corpus=self.corpus, claim_ids=list(SELFTESTS)):
            if not rep.failed or not rep.witnesses:
                errors.append(f"{rep.claim_id} did not fail with witnesses")
        checked = 0
        for entry in self.corpus.entries:
            ring = entry.ring
            local = table_is_local(ring)
            whole = (1 << ring.size) - 1
            for delta in entry.expansions:
                for I in d.ideals.enumerate_ideals(ring):
                    if not I.is_proper:
                        continue
                    want = rule_expects(local, delta.kind,
                                        lambda: delta.table[I.mask] == whole)
                    if d.predicates.is_delta_n_ideal(I, delta) != want:
                        errors.append(f"rule: {ring.key} {delta.name()} {I!r}")
                    checked += 1
        if checked == 0:
            errors.append("rule: no corpus triple checked")
        return errors


# ---------------------------------------------------------------------------
# ring-ladder
# ---------------------------------------------------------------------------

class RingLadder:
    """Each ring: build, lattice, catalog, every proper-ideal x catalog
    delta-n decision, and delta_n_spectrum for a freshly built delta1."""

    def setup(self, deltan, seed):
        self.d = deltan
        self.order = workloads.ladder_order(seed)

    def build(self, entry):
        rings = self.d.rings
        if entry[0] == "Z":
            return rings.modular(entry[1])
        if entry[0] == "P":
            return rings.poly_quotient(entry[1], [0] * entry[2] + [1])
        return rings.product(rings.modular(entry[1]), rings.modular(entry[2]))

    def run(self, cal):
        d = self.d
        ops = 0
        self.records = []
        self.latencies = []
        for entry in self.order:
            ring = self.build(entry)
            cal.tick(clock(), len(self.latencies))
            lattice = d.ideals.enumerate_ideals(ring)
            cal.tick(clock(), len(self.latencies))
            catalog = d.verifier.catalog(ring)
            cal.tick(clock(), len(self.latencies))
            decisions = []
            for I in lattice:
                if not I.is_proper:
                    continue
                for delta in catalog:
                    start = clock()
                    got = d.predicates.is_delta_n_ideal(I, delta)
                    end = clock()
                    self.latencies.append(end - start)
                    decisions.append((I, delta, got))
                    cal.tick(end, len(self.latencies))
            spectrum = d.predicates.delta_n_spectrum(ring, d.expansions.delta1(ring))
            cal.tick(clock(), len(self.latencies))
            self.records.append((entry, ring, lattice, catalog, decisions, spectrum))
            ops += 4 + len(decisions)
        return ops

    def check(self):
        errors = []
        for entry, ring, lattice, catalog, decisions, spectrum in self.records:
            label = workloads.ladder_label(entry)
            model = workloads.ladder_model(entry)
            want = workloads.model_lattice_size(model)
            if len(lattice) != want:
                errors.append(f"{label}: {len(lattice)} ideals, closed form {want}")
            local = workloads.model_is_local(model)
            whole = (1 << ring.size) - 1
            for I, delta, got in decisions:
                want_dn = rule_expects(local, delta.kind,
                                       lambda: delta.table[I.mask] == whole)
                if got != want_dn:
                    errors.append(f"{label}: rule fails for {delta.name()} at {I!r}")
            decided = {I.mask for I, delta, got in decisions
                       if got and delta.kind == "delta1"}
            if {I.mask for I in spectrum.all} != decided:
                errors.append(f"{label}: delta1 spectrum differs from the decisions")
        return errors


# ---------------------------------------------------------------------------
# cli-queries
# ---------------------------------------------------------------------------

_FLAG = re.compile(r"^(n-ideal|quasi n-ideal|proper|delta-n-ideal \((\w+)\)): (true|false)",
                   re.MULTILINE)
_HEADER = re.compile(r"\((\d+) ideals\):$", re.MULTILINE)


class CliQueries:
    """One-off classify / ideals queries through deltan.cli.main."""

    def setup(self, deltan, seed):
        self.d = deltan
        self.queries = workloads.generate_queries(seed)

    def run(self, cal):
        cli = self.d.cli
        self.outputs = []
        self.latencies = []
        for q in self.queries:
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(q["argv"])
            end = clock()
            self.latencies.append(end - start)
            self.outputs.append((code, out.getvalue()))
            cal.tick(end, len(self.latencies))
        return len(self.queries)

    @property
    def failed(self):
        return sum(1 for code, _ in self.outputs if code != 0)

    def check(self):
        errors = []
        for q, (code, text) in zip(self.queries, self.outputs):
            if code != 0:
                continue  # counted as failed, not as incorrect
            where = " ".join(q["argv"])
            if q["kind"] == "ideals":
                errors.extend(f"{where}: {e}" for e in self._check_ideals(q, text))
            else:
                errors.extend(f"{where}: {e}" for e in self._check_classify(q, text))
        return errors

    def _check_ideals(self, q, text):
        header = _HEADER.search(text)
        if header is None:
            return ["no lattice header"]
        count = int(header.group(1))
        want = workloads.model_lattice_size(q["model"])
        if want is None:
            want = workloads.count_ideals(q["model"])
        return [] if count == want else [f"{count} ideals, expected {want}"]

    def _check_classify(self, q, text):
        flags, methods = {}, {}
        for m in _FLAG.finditer(text):
            value = m.group(3) == "true"
            if m.group(2):
                methods[m.group(2)] = value
            else:
                flags[m.group(1)] = value
        if flags.get("proper") is not True:
            return ["the drawn ideal is not proper"]
        if len(methods) != 4 or len(set(methods.values())) != 1:
            return [f"the four delta-n methods disagree: {methods}"]
        local = workloads.model_is_local(q["model"])
        errors = []
        if flags.get("n-ideal") != local:
            errors.append(f"n-ideal printed {flags.get('n-ideal')}, rule says {local}")
        if flags.get("quasi n-ideal") != local:
            errors.append(f"quasi n-ideal printed {flags.get('quasi n-ideal')}, "
                          f"rule says {local}")
        want = rule_expects(local, q["form"], lambda: self._value_is_whole_ring(q))
        if methods["definition"] != want:
            errors.append(f"delta-n printed {methods['definition']}, rule says {want}")
        return errors

    def _value_is_whole_ring(self, q):
        dsl = self.d.dsl
        _, spec, ideal_text, _, delta_text = q["argv"]
        ring = dsl.bind_ring(dsl.parse_spec(spec))
        ideal = dsl.bind_ideal(ring, dsl.parse_ideal_text(ideal_text))
        delta = dsl.bind_expansion(ring, dsl.parse_expansion_text(delta_text))
        return delta.table[ideal.mask] == (1 << ring.size) - 1


WORKLOAD_CLASSES = {"verify-default": VerifyDefault, "ring-ladder": RingLadder,
                    "cli-queries": CliQueries}


def run_round(workload, seed, mode):
    cal = Calibrator()
    for _ in range(CAL_SETUP_SAMPLES):
        cal.sample()
    start = clock()
    deltan = import_deltan()
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    job = WORKLOAD_CLASSES[workload]()
    job.setup(deltan, seed)
    setup_s = clock() - start
    for _ in range(CAL_SETUP_SAMPLES):
        cal.sample()
    result = {"setup_s": setup_s / cal.speed()}
    if mode == "setup":
        return result
    cal = Calibrator()
    start = clock()
    attempted = job.run(cal)
    wall_s = clock() - start - sum(cal.samples)
    cal.sample()  # one sample at least, outside the timed section
    speed = cal.speed()
    result["wall_s"] = wall_s / speed
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {name: (value / speed if unit == "s" else value, unit)
                            for name, (value, unit) in spans.layer_metrics(tracer).items()}
        result["shares"] = spans.layer_shares(tracer)
        result["spans"] = tracer.agg.to_json()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = attempted
    result["failed"] = getattr(job, "failed", 0)
    result["latencies_ms"] = [t * 1000.0 / s for t, s in
                              zip(job.latencies, cal.local_speeds(len(job.latencies)))]
    result["errors"] = job.check()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--digest", action="store_true",
                        help="print the SHA-256 of the default verify --json report")
    args = parser.parse_args(argv)
    if args.digest:
        deltan = import_deltan()
        report = deltan.verifier.render_json(deltan.verifier.run_claims())
        print(hashlib.sha256(report.encode("utf-8")).hexdigest())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_round(args.workload, args.seed, args.mode)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
