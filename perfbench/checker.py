"""Output checks for benchmark jobs.

Reports are read as `key=value` tokens; unknown keys and lines without `=`
are ignored, so a later change may add fields.  Work counters are never
checked, because an optimisation is allowed to change them.  A job fails on
a nonzero exit code, an exception, or any of:

- a hand-written fixture value that differs (`Job.expect`);
- a broken invariant: vcdim <= ldim, cdim <= scdim, eqmq lc <= eq lc on the
  same class and hypothesis class, result=success, a witness teacher forcing
  at least n + 1 queries, roundtrip=ok, deficient_cycles=none, mean <= bound;
- an answer that differs from the one recorded for the default seed.
"""

from __future__ import annotations

from fractions import Fraction

WORK_COUNTERS = frozenset({"nodes", "samples"})


def parse_report(text):
    """All `key=value` tokens of a report; a later token wins."""
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep and key:
            fields[key] = value
    return fields


def answer_fields(text):
    """The fields worth recording as answers: everything but work counters."""
    return {k: v for k, v in parse_report(text).items() if k not in WORK_COUNTERS}


def _int(fields, key):
    return int(fields[key])


class Checker:
    """Checks one run's jobs; remembers eq/eqmq answers for the pair check."""

    def __init__(self, recorded=None):
        self.recorded = recorded or {}
        self._pairs = {}

    def check(self, job, code, text):
        """Problems with one job's result; an empty list means it passed."""
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        try:
            fields = parse_report(text)
            problems = self._invariants(job, fields)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return [f"unreadable report ({type(exc).__name__}: {exc}): {text.strip()[:200]}"]
        for key, want in job.expect.items():
            if fields.get(key) != want:
                problems.append(f"fixture {key}={fields.get(key)} expected {want}")
        for key, want in self.recorded.get(job.id, {}).items():
            if fields.get(key) != want:
                problems.append(f"recorded {key}={want} but got {fields.get(key)}")
        return problems

    def _invariants(self, job, fields):
        problems = []
        command = job.argv[0]
        if command == "dims":
            if _int(fields, "vcdim") > _int(fields, "ldim"):
                problems.append("vcdim > ldim")
            if "cdim" in fields and "scdim" in fields:
                if _int(fields, "cdim") > _int(fields, "scdim"):
                    problems.append("cdim > scdim")
        elif command == "exact":
            lc = _int(fields, "lc")
            if lc < 1:
                problems.append(f"lc={lc} < 1")
            if job.pair is not None:
                key, mode = job.pair
                seen = self._pairs.setdefault(key, {})
                seen[mode] = lc
                if "eq" in seen and "eqmq" in seen and seen["eqmq"] > seen["eq"]:
                    problems.append(f"eqmq lc={seen['eqmq']} > eq lc={seen['eq']}")
        elif command == "learn" or (command == "dfa" and "--learn" in job.argv):
            if fields["result"] != "success":
                problems.append(f"result={fields['result']}")
            if job.min_queries is not None:
                queries = _int(fields, "eq") + _int(fields, "mq")
                if queries < job.min_queries:
                    problems.append(f"{queries} queries < witness bound {job.min_queries}")
        elif command == "dfa":
            _int(fields, "ldim")
        elif command == "thicket":
            if fields["deficient_cycles"] != "none":
                problems.append(f"deficient_cycles={fields['deficient_cycles']}")
            if "mean" in fields and Fraction(fields["mean"]) > Fraction(fields["bound"]):
                problems.append(f"mean={fields['mean']} > bound={fields['bound']}")
        elif command == "compress":
            if fields["roundtrip"] != "ok":
                problems.append(f"roundtrip={fields['roundtrip']}")
        return problems
