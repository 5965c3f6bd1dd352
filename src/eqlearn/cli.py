"""Command-line front end.

Exit codes: 0 success (or help text), 1 usage error, 2 input error, 3
internal invariant violation.  Every command is a pure function of its
arguments and input files; all randomness flows from explicit --seed values.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import fixtures
from .automata import dfa_class_summary, learn_dfa, parse_dfa
from .core import (
    AllTotals,
    ClassFormatError,
    Distribution,
    InvariantViolation,
    parse_class,
    parse_distribution,
    parse_partial,
    format_class,
)
from .compression import CompressionScheme, check_roundtrip
from .dimensions import (
    _smallest_unextendable,
    consistency_dim,
    consistency_threshold,
    hypothesis_hm,
    ldim_subset,
    strong_consistency_dim,
    vc_dim,
)
from .gametree import lc_exact_with_stats
from .learners import (
    CdimEqLearner,
    EqMqLearner,
    HalvingEqLearner,
    OptimalEqLearner,
    Sc2EqLearner,
    ThicketMaxMinLearner,
    run_session,
    transcript_lines,
)
from .rng import check_seed
from .teachers import HonestTeacher, RandomTeacher, TreeAdversary, WitnessAdversary
from .thicket import ThicketGraph, deficient_cycle_search, estimate_expected_queries

# label cells (see _gen_cells) of the largest class `gen` builds
GEN_CELL_LIMIT = 1 << 22


class UsageError(Exception):
    pass


class _HelpText(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _HelpText(self.format_help())


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ClassFormatError(f"cannot read {path}: {exc}") from exc


def _load_distribution(path, universe):
    """The distribution in the file at `path`, or uniform when no path is given."""
    if not path:
        return Distribution.uniform(universe)
    return parse_distribution(universe, _read_text(path))


def _load_class(path):
    return parse_class(_read_text(path))


def _spec_int(text, what, spec, form):
    """An integer field of a hypothesis or teacher spec: an optional minus
    sign and decimal digits, nothing else (no '+', blanks or '_')."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise UsageError(f"{what} {spec!r} does not have the form {form}")
    return int(text)


def _load_hypotheses(spec, cls):
    if spec == "self":
        return cls
    if spec == "powerset":
        return AllTotals(cls.universe)
    if spec.startswith("m:"):
        return hypothesis_hm(cls, _spec_int(spec[2:], "hypothesis", spec, "m:<k>"))
    hyp_class = _load_class(spec)
    if hyp_class.universe != cls.universe:
        raise ClassFormatError("hypothesis class universe differs from the class")
    return hyp_class


@functools.cache
def _build_parser():
    """The one parser of the process, built on first use.  Parsing keeps no
    state on it between calls, and help text reads COLUMNS when formatted."""
    parser = _Parser(prog="eqlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="report dimensions of a class")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--hyp", dest="hyp")
    p.add_argument("--strong", action="store_true")

    p = sub.add_parser("exact", help="exact minimax learning complexity")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--hyp", dest="hyp", required=True)
    p.add_argument("--mode", choices=["eq", "eqmq"], default="eq")

    p = sub.add_parser("learn", help="run one learning session")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--hyp", dest="hyp", default="self")
    p.add_argument(
        "--algo",
        choices=["optimal", "cdim", "sc2", "halving", "eqmq", "thicket"],
        required=True,
    )
    p.add_argument("--teacher", required=True)
    p.add_argument("--target", type=int, help="target index for the random teacher")
    p.add_argument("--budget", type=int)
    p.add_argument("--mu", help="distribution file for the thicket learner")

    p = sub.add_parser("thicket", help="query graph report and Monte-Carlo runs")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--mu")
    p.add_argument("--cycles", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="Monte-Carlo seed (default 0)")

    p = sub.add_parser("compress", help="compression scheme report")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--check-all", action="store_true")

    p = sub.add_parser("dfa", help="DFA concept classes and learning")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--dims", action="store_true")
    p.add_argument("--learn", action="store_true")
    p.add_argument("--target")
    p.add_argument("--mode", choices=["eq", "eqmq"], help="default: eqmq")

    p = sub.add_parser("gen", help="generate canonical class files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree", nargs=2, type=int, metavar=("C", "D"))
    group.add_argument("--singletons", type=int, metavar="N")
    group.add_argument("--powerset", type=int, metavar="K")
    group.add_argument("--random", nargs=2, type=int, metavar=("NX", "NC"))
    p.add_argument("--seed", type=int)

    return parser


def _cmd_dims(args):
    if args.strong and not args.hyp:
        raise UsageError("--strong needs --hyp")
    cls = _load_class(args.class_file)
    # the strong dimension against the powerset needs no 3^|X| array; any
    # other builds it first, refusing a universe too large for it before any
    # other work, and the array then also holds every total's consistency
    # level, so H_m, cdim and the threshold are gathered from it rather than
    # searched for
    if args.strong and args.hyp != "powerset":
        _smallest_unextendable(cls)
    hyp = _load_hypotheses(args.hyp, cls) if args.hyp else None
    threshold = consistency_threshold(cls)
    lines = [f"ldim={ldim_subset(cls, cls.full_version)}", f"vcdim={vc_dim(cls)}"]
    if hyp is not None:
        # against the class itself, cdim is the threshold
        lines.append(f"cdim={threshold if hyp is cls else consistency_dim(cls, hyp)}")
        if args.strong:
            lines.append(f"scdim={strong_consistency_dim(cls, hyp)}")
    lines.append(f"threshold={threshold}")
    return lines


def _cmd_exact(args):
    cls = _load_class(args.class_file)
    hyp = _load_hypotheses(args.hyp, cls)
    value, nodes = lc_exact_with_stats(cls, hyp, args.mode)
    return [f"lc={value} nodes={nodes}"]


_TEACHER_FORMS = {
    "tree": "tree",
    "honest": "honest:<i>",
    "witness": "witness:<partial>:<n>",
    "random": "random:<mu-file>:<seed>",
}


def _make_teacher(spec, cls, target):
    kind, *fields = spec.split(":")
    form = _TEACHER_FORMS.get(kind)
    if form is None:
        raise UsageError(f"unknown teacher {spec!r}")
    if len(fields) != form.count(":"):
        raise UsageError(f"teacher {spec!r} does not have the form {form}")
    if kind == "random" and target is None:
        raise UsageError("the random teacher needs --target")
    if kind != "random" and target is not None:
        raise UsageError("--target applies only to the random teacher")
    if kind == "tree":
        return TreeAdversary(cls)
    # every other form ends in its one integer field
    number = _spec_int(fields[-1], "teacher", spec, form)
    if kind == "honest":
        return HonestTeacher(cls, number)
    if kind == "witness":
        return WitnessAdversary(cls, parse_partial(cls.universe, fields[0]), number)
    return RandomTeacher(cls, target, _load_distribution(fields[0], cls.universe), number)


def _make_learner(algo, cls, hyp, mu_file):
    if algo == "optimal":
        return OptimalEqLearner(cls)
    if algo == "cdim":
        return CdimEqLearner(cls, hyp)
    if algo == "sc2":
        return Sc2EqLearner(cls, hyp)
    if algo == "halving":
        return HalvingEqLearner(cls, hyp)
    if algo == "eqmq":
        return EqMqLearner(cls, hyp)
    return ThicketMaxMinLearner(cls, _load_distribution(mu_file, cls.universe))


def _cmd_learn(args):
    if args.mu is not None and args.algo != "thicket":
        raise UsageError("--mu applies only to --algo thicket")
    if args.algo == "thicket" and args.hyp != "self":
        raise UsageError("--algo thicket guesses members of the class; use --hyp self")
    cls = _load_class(args.class_file)
    hyp = _load_hypotheses(args.hyp, cls)
    if args.algo == "optimal" and not isinstance(hyp, AllTotals):
        raise UsageError("--algo optimal guesses arbitrary totals; use --hyp powerset")
    learner = _make_learner(args.algo, cls, hyp, args.mu)
    teacher = _make_teacher(args.teacher, cls, args.target)
    budget = args.budget
    if budget is None:
        budget = max(learner.certified_budget, len(cls) + 1)
    transcript = run_session(learner, teacher, budget)
    return transcript_lines(transcript, cls.universe)


def _format_fraction(f):
    return f"{f.numerator}/{f.denominator}"


def _cmd_thicket(args):
    if args.seed is not None and args.trials is None:
        raise UsageError("--seed applies only with --trials")
    cls = _load_class(args.class_file)
    mu = _load_distribution(args.mu, cls.universe)
    lines = [f"maxrank={_format_fraction(ThicketGraph(cls, mu).max_query_rank())}"]
    max_len = args.cycles if args.cycles is not None else len(cls)
    cycle = deficient_cycle_search(cls, mu, max_len)
    lines.append("deficient_cycles=" + (",".join(map(str, cycle)) if cycle else "none"))
    if args.trials is not None:
        seed = 0 if args.seed is None else args.seed
        stats = estimate_expected_queries(cls, mu, args.trials, seed)
        lines.append(
            f"mean={stats.mean:.4f} stderr={stats.stderr:.4f} "
            f"max={stats.max_queries} bound={2 * stats.ldim}"
        )
    return lines


def _cmd_compress(args):
    cls = _load_class(args.class_file)
    scheme = CompressionScheme(cls)
    line = f"d={scheme.dimension} rhos={scheme.reconstruction_count}"
    if not args.check_all:
        return [line]
    count, failures = check_roundtrip(cls)
    if failures:
        return [f"{line} samples={count} roundtrip=FAIL({failures[0].literal()})"]
    return [f"{line} samples={count} roundtrip=ok"]


def _cmd_dfa(args):
    if args.learn:
        if args.dims:
            raise UsageError("--dims and --learn are separate reports")
        if not args.target:
            raise UsageError("--learn needs --target FILE")
        target = parse_dfa(_read_text(args.target))
    elif args.target or args.mode:
        raise UsageError("--target and --mode apply only with --learn")
    # the one enumeration and search of the class; both reports read it
    summary = cls, d, c = dfa_class_summary(args.states, args.maxlen)
    if args.learn:
        lines = transcript_lines(learn_dfa(summary, target, args.mode or "eqmq"), cls.universe)
        lines.append(f"bound=exact c={c} d={d}")
        return lines
    return [f"concepts={len(cls)}", f"elements={cls.universe.size}", f"ldim={d}", f"cdim={c}"]


def _gen_cells(args):
    """Label cells |X| * |C| of the class `gen` would build, computed from the
    arguments alone.  An element's name costs about as much as 64 cells, so
    each element is charged at least that.  Any value above GEN_CELL_LIMIT
    stands for all of them; sizes below 1 are left to the builder to refuse."""
    if args.tree:
        c, d = args.tree
        if c < 2 or d < 1:
            return 0
        elements, concepts = 0, 1
        for _ in range(d):
            concepts *= c
            if concepts > GEN_CELL_LIMIT:
                return concepts
            elements += concepts
    elif args.singletons is not None:
        elements = concepts = args.singletons
    elif args.powerset is not None:
        # every k past the limit's bit length is over it too
        elements = min(args.powerset, GEN_CELL_LIMIT.bit_length())
        concepts = 1 << max(elements, 0)
    else:
        elements, concepts = args.random
    return max(elements, 0) * max(concepts, 64)


def _cmd_gen(args):
    if args.random and args.seed is None:
        raise UsageError("--random needs --seed")
    if _gen_cells(args) > GEN_CELL_LIMIT:
        raise ClassFormatError(
            f"gen is limited to |X| * |C| <= {GEN_CELL_LIMIT} label cells"
        )
    if args.tree:
        cls = fixtures.tree_class(*args.tree)
    elif args.singletons is not None:
        cls = fixtures.singletons(args.singletons)
    elif args.powerset is not None:
        cls = fixtures.powerset_class(args.powerset)
    else:
        cls = fixtures.random_class(*args.random, args.seed)
    return format_class(cls).splitlines()


_COMMANDS = {
    "dims": _cmd_dims,
    "exact": _cmd_exact,
    "learn": _cmd_learn,
    "thicket": _cmd_thicket,
    "compress": _cmd_compress,
    "dfa": _cmd_dfa,
    "gen": _cmd_gen,
}


def execute(argv):
    """Dispatch a command line; returns (exit code, report text).  A help
    request (-h/--help) returns 0 and the help text.

    Every call parses with the one parser the process shares
    (`_build_parser`); no call mutates it, so `execute` may be called any
    number of times, in any order."""
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        lines = _COMMANDS[args.command](args)
        return 0, "\n".join(lines) + "\n"
    except _HelpText as exc:
        return 0, str(exc)
    except UsageError as exc:
        return 1, f"usage error: {exc}\n"
    except (ClassFormatError, ValueError) as exc:
        return 2, f"input error: {exc}\n"
    except InvariantViolation as exc:
        return 3, f"invariant violation: {exc}\n"


def main():
    code, text = execute(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
