"""Command line front end.

Subcommands:
  paths   enumerate folded paths of a type word, emit JSON
  count   per-endpoint count polynomials (optionally evaluated at q)
  verify  canned verification suites (currently: example8)
  oracle  finite-field brute force vs count polynomial comparison
  render  SVG of the wall arrangement with optional walk overlays

Exit codes: 0 success, 1 verification failure, 2 bad flags or a failed
write, 3 internal error (the matrix executor or the reduced-word descent
broke an invariant), 130 on Ctrl-C and 141 when the reader closes stdout,
as SIGINT and SIGPIPE do.

`json` and `example8` are imported where they run, and `loopgroup` and
`render` are modules that the package loads lazily, read at call time, so
a job that reads no JSON and runs no suite, oracle or render does not load
them.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import loopgroup, render
from .affine import (
    AffineWeylGroup,
    InvariantError,
    NormalizationError,
    WordError,
    element_from_json,
    parse_word,
)
from .cartan import CartanError, from_label, validate_cartan
from .folding import cells_by_endpoint, endpoint_counts, enumerate_folded_paths, paths_to_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alcovewalks",
        description="Folded alcove walks, cell point counts, and their matrix verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--type",
            required=True,
            help='Cartan type label ("A2") or JSON matrix ("[[2,-1],[-1,2]]")',
        )
        p.add_argument("--word", required=True, help="comma separated letters, e.g. 2,1,0")
        p.add_argument("--allow-nonreduced", action="store_true", dest="nonreduced_ok")

    end_help = 'endpoint as a word ("2,1,0") or {translation, finite_word} JSON'
    p_paths = sub.add_parser("paths", help="enumerate folded paths as JSON")
    common(p_paths)
    p_paths.add_argument("--end", help=f"only paths ending here; {end_help}")
    p_paths.add_argument("--out", help="write JSON here instead of stdout")

    p_count = sub.add_parser("count", help="count polynomials by endpoint")
    common(p_count)
    p_count.add_argument("--end", help=f"only this endpoint; {end_help}")
    p_count.add_argument("--q", type=int, help="also evaluate at this q")

    p_verify = sub.add_parser("verify", help="run a canned verification suite")
    p_verify.add_argument("suite", choices=["example8"])

    p_oracle = sub.add_parser("oracle", help="brute force tallies vs count polynomials")
    common(p_oracle)
    p_oracle.add_argument("--p", type=int, required=True, help="prime for the label field")

    p_render = sub.add_parser("render", help="render the arrangement to SVG")
    p_render.add_argument("--type", required=True, help="Cartan type label or JSON matrix")
    p_render.add_argument("--radius", type=int, default=2)
    p_render.add_argument("--word", help="overlay the walk of this word")
    p_render.add_argument("--end", help="with --word: overlay the folded paths ending here")
    p_render.add_argument("--out", required=True)
    return parser


def _datum_for(text: str):
    if text.lstrip().startswith("["):
        import json

        try:
            matrix = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CartanError(f"cannot parse matrix JSON: {exc}") from exc
        return validate_cartan(matrix)
    return from_label(text)


def _group_for(label: str) -> AffineWeylGroup:
    return AffineWeylGroup(_datum_for(label))


def _parse_endpoint(group, text: str | None):
    """An endpoint is a word ("2,1,0") or {translation, finite_word} JSON;
    without --end there is none."""
    if text is None:
        return None
    if text.lstrip().startswith("{"):
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WordError(f"cannot parse endpoint JSON: {exc}") from exc
        return element_from_json(group, doc)
    return group.from_word(parse_word(text))


def _check_out(path) -> None:
    """Raise unless --out names a file in a directory that exists, before any
    work.  An empty name and a directory fail as open() on them would."""
    if path == "":
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if path is not None:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"--out directory {directory} does not exist")


def _word_text(word) -> str:
    return ",".join(map(str, word)) or "-"


def _reduced(group, word, allowed: bool) -> bool:
    """Whether `word` is reduced; the CLI refuses it if not, unless `allowed`."""
    reduced = group.is_reduced(word)
    if not (reduced or allowed):
        raise WordError(f"word {word} is not reduced (pass --allow-nonreduced to override)")
    return reduced


def _cmd_paths(args) -> int:
    _check_out(args.out)
    word = parse_word(args.word)
    group = _group_for(args.type)
    target = _parse_endpoint(group, args.end)
    nonreduced = not _reduced(group, word, args.nonreduced_ok)
    cells = cells_by_endpoint(group, word, target)
    if args.out is not None:
        with open(args.out, "w") as fh:
            paths_to_json(group, word, cells, fh.write, nonreduced)
    else:
        paths_to_json(group, word, cells, sys.stdout.write, nonreduced)
    return 0


def _cmd_count(args) -> int:
    word = parse_word(args.word)
    group = _group_for(args.type)
    target = _parse_endpoint(group, args.end)
    _reduced(group, word, args.nonreduced_ok)
    counts = endpoint_counts(group, word, target)
    if target is not None:
        if target not in counts:
            print("0")
            return 0
        line = str(counts[target])
        if args.q is not None:
            line += f" = {counts[target].evaluate(args.q)} at q={args.q}"
        print(line)
        return 0
    for end, end_word in group.canonical_words(counts).items():
        line = f"{_word_text(end_word)}\t{counts[end]}"
        if args.q is not None:
            line += f"\t{counts[end].evaluate(args.q)}"
        print(line)
    return 0


def _cmd_verify(args) -> int:
    from . import example8

    failures = 0
    for name, ok, detail in example8.run_checks():
        status = "ok" if ok else "FAIL"
        print(f"{status}: {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} assertion(s) failed")
        return 1
    print("all assertions passed")
    return 0


def _cmd_oracle(args) -> int:
    word = parse_word(args.word)
    group = _group_for(args.type)
    loopgroup.check_type_a(group.datum)
    loopgroup.check_brute_force(word, args.p)
    _reduced(group, word, args.nonreduced_ok)
    counts = endpoint_counts(group, word)
    tallies = loopgroup.brute_force_cells(group.datum, word, args.p)
    mismatches = 0
    print(f"endpoint\tpolynomial\tq={args.p}\tbrute")
    for end, end_word in group.canonical_words(set(counts) | set(tallies)).items():
        poly = counts.get(end)
        want = poly.evaluate(args.p) if poly is not None else 0
        got = tallies.get(end, 0)
        flag = "" if want == got else "\tMISMATCH"
        mismatches += 0 if want == got else 1
        print(f"{_word_text(end_word)}\t{poly if poly is not None else '0'}\t{want}\t{got}{flag}")
    if mismatches:
        print(f"{mismatches} endpoint(s) disagree")
        return 1
    print("oracle agrees with the enumerator")
    return 0


def _cmd_render(args) -> int:
    if args.end is not None and args.word is None:
        raise ValueError("--end needs --word")
    render.check_radius(args.radius)
    _check_out(args.out)
    word = None if args.word is None else parse_word(args.word)
    datum = _datum_for(args.type)
    render.check_rank(datum)
    group = AffineWeylGroup(datum)
    overlays = () if word is None else (word,)
    target = _parse_endpoint(group, args.end)
    if target is not None:
        overlays = enumerate_folded_paths(group, word, target)
        if not overlays:
            print("no folded path has that endpoint", file=sys.stderr)
            return 1
    svg = render.render_arrangement(group, args.radius, overlays)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


_COMMANDS = {
    "paths": _cmd_paths,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
}


# the exit statuses of a process that SIGPIPE (128 + 13) or SIGINT (128 + 2) ends
EXIT_CLOSED_STDOUT, EXIT_INTERRUPTED = 141, 130


def _discard_stdout() -> None:
    """After a failed write, point stdout at devnull if output is still
    buffered for it, so that the interpreter's final flush does not fail
    again (Python docs, signal module, "Note on SIGPIPE")."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a failed write to stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: stop quietly
        _discard_stdout()
        return EXIT_CLOSED_STDOUT
    except OSError as exc:
        # a failed write: a full disk, or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        _discard_stdout()
        return 2
    except (CartanError, WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NormalizationError, InvariantError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
