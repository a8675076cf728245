import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alcovewalks
from alcovewalks.affine import (
    MAX_WORD_LENGTH,
    AffineWeylGroup,
    affine_root_to_json,
    element_to_json,
    parse_word,
)
from alcovewalks.cartan import from_label
from alcovewalks.cli import EXIT_CLOSED_STDOUT, main
from alcovewalks.folding import cells_by_endpoint, count_polynomial
from alcovewalks.render import MAX_RADIUS

from helpers import BENCH_CASES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_with_endpoint(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--type",
        "A2",
        "--word",
        "2,1,0,2,0,1,0,2,0",
        "--end",
        "2,1,0,2,1,2,0",
    )
    assert code == 0
    assert out.strip() == "q^3-2q^2+q"


def test_readme_count_end_example_prints_its_line():
    env = dict(os.environ, PYTHONPATH=str(Path(alcovewalks.__file__).parents[1]))
    argv = ["count", "--type", "A2", "--word", "2,1,0,2,0,1,0,2,0", "--end", "2,1,0,2,1,2,0"]
    proc = subprocess.run(
        [sys.executable, "-m", "alcovewalks.cli", *argv], capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"q^3-2q^2+q\n", b"")


def test_count_table_with_q(capsys):
    code, out, _ = run(capsys, "count", "--type", "A1", "--word", "1", "--q", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["-\tq-1\t3", "1\t1\t1"]


def test_paths_json(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A1", "--word", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 2
    assert doc["type_word"] == [1]


def test_paths_endpoint_filter(capsys):
    code, out, _ = run(
        capsys, "paths", "--type", "A1", "--word", "1", "--end", ""
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 1
    assert doc["paths"][0]["kinds"] == ["F"]


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A2", "--word", "2,1,0")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def reference_paths_json(group, word, cells, nonreduced) -> str:
    """The paths document built as a dict and printed by the json module."""
    doc = {
        "type_word": list(word),
        "paths": [
            {
                "kinds": [k.value for k in p.kinds],
                "end": element_to_json(group, p.endpoint),
                "walls": [affine_root_to_json(w) for w in p.walls],
                "count": list(count_polynomial(p).coeffs),
                "dim": p.dimension,
            }
            for cell in cells.values()
            for p in cell.paths
        ],
        "by_endpoint": [
            {
                "end": element_to_json(group, end),
                "count": list(cell.count.coeffs),
                "dims": list(cell.dimensions),
            }
            for end, cell in cells.items()
        ],
    }
    if nonreduced:
        doc["warning"] = "type word is not reduced; path/cell bijection is not guaranteed"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "label, word, flags",
    [
        ("A1", "1", ()),
        ("A2", "", ()),
        ("A2", "1,1", ("--allow-nonreduced",)),
        ("A2", "2,1,0", ("--end", "0,1,2,0")),
        ("G2", "1,2,1,0,2,1", ()),
        ("C3", "1,2,3,2,1,0,1", ()),
    ],
    ids=["A1", "A2-empty-word", "A2-nonreduced", "A2-no-matching-end", "G2", "C3"],
)
def test_paths_stream_matches_json_dumps(capsys, label, word, flags):
    code, out, _ = run(capsys, "paths", "--type", label, "--word", word, *flags)
    assert code == 0
    group = AffineWeylGroup(from_label(label))
    letters = parse_word(word)
    nonreduced = not group.is_reduced(letters)
    cells = cells_by_endpoint(group, letters, allow_nonreduced=nonreduced)
    if "--end" in flags:
        target = group.from_word(parse_word(flags[-1]))
        cells = {end: cell for end, cell in cells.items() if end == target}
        assert not cells
    assert out == reference_paths_json(group, letters, cells, nonreduced)


def test_verify_example8(capsys):
    code, out, _ = run(capsys, "verify", "example8")
    assert code == 0
    assert out.count("ok:") == 6
    assert "FAIL" not in out


def test_oracle_agreement(capsys):
    code, out, _ = run(
        capsys, "oracle", "--type", "A1", "--word", "1,0", "--p", "3"
    )
    assert code == 0
    assert "oracle agrees" in out


# For a non-reduced word the label tuples are the points of the product
# I s_j1 I x^I ... /I, and the enumerator with allow_nonreduced counts them
@pytest.mark.parametrize(
    "type_label, word",
    [
        ("A2", "1,1"),
        ("A2", "1,2,1,2"),
        ("A2", "0,0,1"),
        ("A2", "2,1,0,0,1,2"),
        ("A2", "1,0,1,0,1"),
        ("A3", "1,2,1,2,3,0,0"),
    ],
)
def test_oracle_agrees_on_a_nonreduced_word(capsys, type_label, word):
    code, out, err = run(
        capsys, "oracle", "--type", type_label, "--word", word, "--p", "2", "--allow-nonreduced"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "oracle agrees with the enumerator"


def test_render_writes_file(tmp_path, capsys):
    out_file = tmp_path / "walk.svg"
    code, _, _ = run(
        capsys,
        "render",
        "--type",
        "A2",
        "--radius",
        "2",
        "--word",
        "2,1,0,2,0,1,0,2,0",
        "--end",
        "2,1,0,2,1,2,0",
        "--out",
        str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<?xml")
    assert 'class="fold"' in text


def test_paths_out_flag(tmp_path, capsys):
    out_file = tmp_path / "paths.json"
    code, out, _ = run(
        capsys, "paths", "--type", "A2", "--word", "2,1,0,2,0", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["type_word"] == [2, 1, 0, 2, 0]
    _, stdout, _ = run(capsys, "paths", "--type", "A2", "--word", "2,1,0,2,0")
    assert out_file.read_bytes() == stdout.encode()


@pytest.mark.parametrize(
    "argv",
    [["paths", "--type", "A1", "--word", "1"], ["render", "--type", "A1"]],
    ids=["paths", "render"],
)
def test_empty_out_exits_2(capsys, monkeypatch, argv):
    # an empty --out is a file name that cannot be opened, not "no --out",
    # and is refused before any work
    def fail(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    monkeypatch.setattr("alcovewalks.cli.cells_by_endpoint", fail)
    monkeypatch.setattr("alcovewalks.render.render_arrangement", fail)
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out, err) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize(
    "argv",
    [["paths", "--type", "A1", "--word", "1"], ["render", "--type", "A1"]],
    ids=["paths", "render"],
)
def test_out_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a directory fails as open() on it would, before any work
    monkeypatch.setattr("alcovewalks.cli.cells_by_endpoint", fail_if_called)
    monkeypatch.setattr("alcovewalks.render.render_arrangement", fail_if_called)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_bad_word_letter_exits_2(capsys):
    code, _, err = run(capsys, "count", "--type", "A1", "--word", "3")
    assert code == 2
    assert "error:" in err


def test_bad_type_exits_2(capsys):
    code, _, err = run(capsys, "count", "--type", "Z9", "--word", "1")
    assert code == 2


def test_rank_above_the_bound_exits_2(capsys):
    code, out, err = run(capsys, "count", "--type", "A40", "--word", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: rank 40 exceeds the maximum rank")


def test_nonreduced_word_exits_2(capsys):
    code, _, err = run(capsys, "count", "--type", "A1", "--word", "1,1")
    assert code == 2
    assert "not reduced" in err


def test_nonreduced_override(capsys):
    code, out, _ = run(
        capsys, "paths", "--type", "A1", "--word", "1,1", "--allow-nonreduced"
    )
    assert code == 0
    assert json.loads(out)["warning"]


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_type_accepts_json_matrix(capsys):
    code, out, _ = run(
        capsys, "count", "--type", "[[2,-1],[-1,2]]", "--word", "2,1,0", "--end", "2,1,0"
    )
    assert code == 0
    assert out.strip() == "1"


def assert_oracle_refuses_type(capsys, monkeypatch, type_text, word):
    def fail(*args, **kwargs):
        raise AssertionError("counted before checking the type")

    monkeypatch.setattr("alcovewalks.cli.endpoint_counts", fail)
    code, out, err = run(capsys, "oracle", "--type", type_text, "--word", word, "--p", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "type A" in err


def test_oracle_rejects_non_type_a_before_counting(capsys, monkeypatch):
    assert_oracle_refuses_type(capsys, monkeypatch, "B2", "1,2")


@pytest.mark.parametrize(
    "type_text, word",
    [
        # type A numbered off the chain: the paths 1-3-2 and 1-2-4-3
        ("[[2,0,-1],[0,2,-1],[-1,-1,2]]", "1,2"),
        ("[[2,-1,0,0],[-1,2,0,-1],[0,0,2,-1],[0,-1,-1,2]]", "1,2,3,4"),
    ],
    ids=["A3-permuted", "A4-permuted"],
)
def test_oracle_rejects_type_a_off_the_chain_before_counting(
    capsys, monkeypatch, type_text, word
):
    assert_oracle_refuses_type(capsys, monkeypatch, type_text, word)


def test_oracle_accepts_the_a3_chain_matrix(capsys):
    flags = ("--word", "1,2,3,0", "--p", "2")
    code, out, _ = run(capsys, "oracle", "--type", "[[2,-1,0],[-1,2,-1],[0,-1,2]]", *flags)
    assert code == 0
    assert out.endswith("oracle agrees with the enumerator\n")
    assert out == run(capsys, "oracle", "--type", "A3", *flags)[1]


A2_COUNT_WORD = "1,2,0,1,0,2,0,1,0,2,0,1,0,2,0,1,0,2,0,1,0,2,0,1,0,2,0,1,0,2,1,0"


@pytest.mark.parametrize(
    "word, p, message",
    [
        (A2_COUNT_WORD, "3", "exceed the guard"),
        ("2,1,0", "4", "not prime"),
        # a Mersenne prime, refused before its primality test would run for minutes
        ("", str(2**61 - 1), "exceeds the guard"),
    ],
)
def test_oracle_checks_its_guard_before_counting(capsys, monkeypatch, word, p, message):
    def fail(*args, **kwargs):
        raise AssertionError("counted before checking the guard")

    monkeypatch.setattr("alcovewalks.cli.endpoint_counts", fail)
    code, out, err = run(capsys, "oracle", "--type", "A2", "--word", word, "--p", p)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


def test_count_does_not_enumerate_paths(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("count enumerated paths")

    monkeypatch.setattr("alcovewalks.folding.enumerate_folded_paths", fail)
    code, out, _ = run(capsys, "count", "--type", "A2", "--word", "2,1,0,2,0,1,0,2,0", "--q", "2")
    assert code == 0
    assert len(out.splitlines()) > 1


def test_end_accepts_element_json(capsys):
    end = '{"translation": [0, -2], "finite_word": [1]}'
    code, out, _ = run(
        capsys,
        "count",
        "--type",
        "A2",
        "--word",
        "2,1,0,2,1,2,0",
        "--end",
        end,
    )
    assert code == 0
    assert out.strip() == "q"


# 1,0,1,0,...: a reduced word of affine A1 at the length bound
A1_BOUND_WORD = ",".join("10"[k % 2] for k in range(MAX_WORD_LENGTH))


def fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


def test_word_at_the_length_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "count", "--type", "A1", "--word", A1_BOUND_WORD)
    assert code == 0
    assert len(out.splitlines()) == MAX_WORD_LENGTH + 1


# an --end word is read against the group, so only the counting must not start
@pytest.mark.parametrize(
    "argv, before_group",
    [
        (["count", "--word", A1_BOUND_WORD + ",1"], True),
        (["paths", "--word", A1_BOUND_WORD + ",1"], True),
        (["oracle", "--word", A1_BOUND_WORD + ",1", "--p", "2"], True),
        (["render", "--word", A1_BOUND_WORD + ",1", "--out", "unused.svg"], True),
        (["count", "--word", "1", "--end", A1_BOUND_WORD + ",1"], False),
        (["count", "--word", "1", "--end", f'{{"translation": [0], "finite_word": [{A1_BOUND_WORD},1]}}'], False),
    ],
    ids=["count", "paths", "oracle", "render", "end-word", "end-json"],
)
def test_word_past_the_length_bound_exits_2_before_any_work(capsys, monkeypatch, argv, before_group):
    monkeypatch.setattr("alcovewalks.cli.endpoint_counts", fail_if_called)
    monkeypatch.setattr("alcovewalks.cli.cells_by_endpoint", fail_if_called)
    if before_group:
        monkeypatch.setattr("alcovewalks.cli._datum_for", fail_if_called)
    code, out, err = run(capsys, argv[0], "--type", "A1", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: word of {MAX_WORD_LENGTH + 1} letters exceeds the maximum length {MAX_WORD_LENGTH}\n"


def test_render_radius_bound(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "walls.svg"
    code, _, _ = run(capsys, "render", "--type", "A1", "--radius", str(MAX_RADIUS), "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().count('class="wall"') == 2 * MAX_RADIUS + 1
    monkeypatch.setattr("alcovewalks.cli._datum_for", fail_if_called)
    for radius in (MAX_RADIUS + 1, 0):
        rejected = tmp_path / f"radius{radius}.svg"
        code, out, err = run(
            capsys, "render", "--type", "A1", "--radius", str(radius), "--out", str(rejected)
        )
        assert code == 2
        assert out == "" and not rejected.exists()
        assert err == f"error: radius {radius} is outside 1..{MAX_RADIUS}\n"


def test_end_json_with_bad_letters_exits_2(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--type",
        "A2",
        "--word",
        "2,1,0",
        "--end",
        '{"translation": [0, 0], "finite_word": [5]}',
    )
    assert code == 2
    assert "letters" in err


def test_normalization_error_exits_3(capsys, monkeypatch):
    from alcovewalks.loopgroup import NormalizationError

    def fail(*args, **kwargs):
        raise NormalizationError("inconsistent linear constraints")

    monkeypatch.setattr("alcovewalks.loopgroup.brute_force_cells", fail)
    code, out, err = run(capsys, "oracle", "--type", "A1", "--word", "1,0", "--p", "3")
    assert code == 3
    assert out == ""
    assert err == "error: NormalizationError: inconsistent linear constraints\n"


def test_invariant_error_exits_3(capsys, monkeypatch):
    from alcovewalks.loopgroup import InvariantError

    def fail():
        raise InvariantError("determinant drifted from 1")

    monkeypatch.setattr("alcovewalks.example8.run_checks", fail)
    code, _, err = run(capsys, "verify", "example8")
    assert code == 3
    assert err == "error: InvariantError: determinant drifted from 1\n"


def test_oracle_exits_3_when_a_crossing_rule_moves_u_out_of_uminus(capsys, monkeypatch):
    # flip the crossing test, in the enumerator and in the executor alike,
    # wherever the uminus-positive wall has delta coefficient >= 1: the
    # tallies still agree with the counts, but u leaves U^- at some leaf
    from alcovewalks import loopgroup

    real_sends, real_positive = AffineWeylGroup.sends_to_uminus, loopgroup.is_uminus_positive

    def sends_to_uminus(self, state, j):
        _, k = self.uminus_wall(state, j)
        return real_sends(self, state, j) != (k >= 1)

    def is_uminus_positive(beta):
        positive = real_positive(beta)
        return positive != ((beta if positive else -beta).k >= 1)

    monkeypatch.setattr(AffineWeylGroup, "sends_to_uminus", sends_to_uminus)
    monkeypatch.setattr(loopgroup, "is_uminus_positive", is_uminus_positive)
    code, out, err = run(capsys, "oracle", "--type", "A2", "--word", "2,1,0,2,1,0", "--p", "2")
    assert code == 3
    assert err == "error: InvariantError: u left the lower unipotent subgroup\n"


def test_failed_descent_exits_3(capsys, monkeypatch):
    from alcovewalks import affine, loopgroup

    # the executor raises the very classes cli maps, without cli loading it
    assert loopgroup.InvariantError is affine.InvariantError
    assert loopgroup.NormalizationError is affine.NormalizationError
    monkeypatch.setattr(affine.AffineWeylGroup, "_descends", lambda self, state, i: False)
    code, out, err = run(capsys, "count", "--type", "A2", "--word", "2,1,0")
    assert (code, out) == (3, "")
    assert err == "error: InvariantError: no descent found for a non-identity element\n"


def test_ctrl_c_exits_130_quietly(capsys, monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(alcovewalks.cli._COMMANDS, "count", interrupt)
    assert run(capsys, "count", "--type", "A1", "--word", "1") == (130, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("--type", "A2", "--word", "2,1,0", "--end", "{}"),
        ("--type", "A2", "--word", "2,1,0", "--end", '{"translation": 5, "finite_word": []}'),
        ("--type", "A2", "--word", "2,1,0", "--end", '{"translation": [0.5, 0], "finite_word": []}'),
        ("--type", "A2", "--word", "2,1,0", "--end", '{"translation": [0, 0], "finite_word": [true]}'),
        ("--type", "[1,2]", "--word", "1"),
        ("--type", "[[2.5]]", "--word", "1"),
    ],
    ids=["end-missing-keys", "end-not-a-list", "end-float", "end-bool", "type-not-rows", "type-float"],
)
def test_malformed_json_exits_2(capsys, argv):
    code, out, err = run(capsys, "count", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# every pool word of every count and paths case; the first keeps the case's name
GOLDEN_JOBS = [
    (command, case, k)
    for command in ("count", "paths")
    for case in BENCH_CASES[command]
    for k in range(len(case["pool"]))
]


@pytest.mark.parametrize(
    "command, case, k",
    GOLDEN_JOBS,
    ids=[f"{command}-{case['name']}" + (f"-{k}" if k else "") for command, case, k in GOLDEN_JOBS],
)
def test_stdout_matches_benchmark_digest(capsys, command, case, k):
    entry = case["pool"][k]
    code, out, _ = run(capsys, command, "--type", case["type"], "--word", entry["word"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


# oracle stdout of every oracle pool word, recorded with the brute force
# that ran the executor once per label tuple
ORACLE_DIGESTS = {
    ("A3", "3,2,1,0", 2): "868bd5a3a8a27920ed16ce2ca5868e57ccd28036529f22e037c518991f2636bb",
    ("A3", "1,2,3,0", 2): "fd92e8bdc048fc705e7a2e87b6fcf33346eefbe8cd2da8d771945db39027205a",
    ("A2", "2,1,0,2,0", 3): "0a6cc49e2ad4353e5f90ac8b1fcaefe4fe43f0bccc7470ab2e3dc5f119011018",
    ("A2", "1,2,0,1,0", 3): "a1a8aaf9e3fb284fd66eac0ce5361df9bc1230151d6e6669dd48050a2cf29120",
}
ORACLE_JOBS = [
    (case["type"], entry["word"], case["p"])
    for case in BENCH_CASES["oracle"]
    for entry in case["pool"]
]


@pytest.mark.parametrize("job", ORACLE_JOBS, ids=[f"{t}-{w}-p{p}" for t, w, p in ORACLE_JOBS])
def test_oracle_stdout_matches_recorded_digest(capsys, job):
    type_label, word, p = job
    code, out, _ = run(capsys, "oracle", "--type", type_label, "--word", word, "--p", str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[job]


RENDER_END_JOBS = [
    (case["type"], entry)
    for case in BENCH_CASES["paths"]
    for entry in case["pool"]
    if "render_sha256" in entry
]


@pytest.mark.parametrize("job", RENDER_END_JOBS, ids=[f"{t}-{k}" for k, (t, _) in enumerate(RENDER_END_JOBS)])
def test_render_end_matches_benchmark_digest(tmp_path, capsys, job):
    type_label, entry = job
    out_file = tmp_path / "end.svg"
    code, _, _ = run(
        capsys, "render", "--type", type_label, "--radius", "2", "--word", entry["word"],
        "--end", entry["largest_end"], "--out", str(out_file),
    )
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == entry["render_sha256"]


def test_render_end_draws_the_folded_paths_of_a_nonreduced_word(tmp_path, capsys):
    # render has no --allow-nonreduced flag: its walk of a non-reduced word
    # is drawn without one, and so are the folded paths ending at --end
    out_file = tmp_path / "nonreduced.svg"
    code, out, err = run(
        capsys, "render", "--type", "A2", "--radius", "2", "--word", "1,1,2,0",
        "--end", "2,0", "--out", str(out_file),
    )
    assert (code, out, err) == (0, "", "")
    svg = out_file.read_text()
    # two paths, FFZP and ZPZP: two start marks, six crossings, two folds
    marks = tuple(svg.count(f'class="{mark}"') for mark in ("start", "crossing", "fold"))
    assert marks == (2, 6, 2)


def test_render_end_that_no_path_reaches_exits_1(tmp_path, capsys):
    out_file = tmp_path / "end.svg"
    code, out, err = run(
        capsys, "render", "--type", "A2", "--radius", "2", "--word", "2,1,0",
        "--end", "2,1,0,2", "--out", str(out_file),
    )
    assert (code, out, err) == (1, "", "no folded path has that endpoint\n")
    assert not out_file.exists()


# sha256 of `render --radius 2 --word W [--end E]`: a word alone draws its
# unfolded walk, with --end the folded paths that end there
WORD_RENDERS = [
    ("A2", "2,1,0,2,0,1,0,2,0", None, "608b825088bd549d576dfda4951795b5cc8ca124ad17292da53832b41986c223"),
    ("A2", "1,1,2,0", None, "9023c7e1680f3c587317e9905fb7448e66b4d119e01317ae3ead12e6857d70b5"),
    ("B2", "2,1,2,0,1", None, "2a6b7a481c92b4098bcdd070e06c4662cf65befe99fa7bc3a6104684cb8e745d"),
    ("G2", "1,2,0,1,2", None, "ef29e0c4e04dd7167ec9308c5dd9d88052533e5625a254d14bae5d51e07404dc"),
    ("A1", "1,0,1", None, "adecf33916b3f1c07004db3847ea87dfdde9b41d72d5e2b8ef9c0ff593e5f28d"),
    ("A2", "2,1,0,2,0,1,0,2,0", "2,1,0,2,1,2,0", "cd54a3da3c71ddb60286e645b84e3bf61df9b79b9b891441d9809aedf1478e50"),
    ("C2", "2,1,2,0,1", None, "e1f168067227211cc371e07b55ec781d7820424ace14b5ccbc5bf85e14faae94"),
    ("C2", "2,1,2,0,1", "0,1", "86a6bcdfce46b5c75971140e636a82a84058df827fe764bc249d24027b98adeb"),
    ("G2", "1,2,0,1,2", "0,2", "ec81ccf63cb4b8a0c810c423b9363933395753c9dc92317a1af69b0f396f72ef"),
    ("A1", "1,0,1", "", "99949d29bb560d6e0f4ef7738de3255bb6c2d641e0b23ecb9d041ef5810b18f7"),
]


@pytest.mark.parametrize(
    "type_label, word, end, digest",
    WORD_RENDERS,
    ids=[
        "A2-walk", "A2-nonreduced-walk", "B2-walk", "G2-walk", "A1-walk", "A2-end",
        "C2-walk", "C2-end", "G2-end", "A1-end-identity",
    ],
)
def test_render_word_matches_recorded_digest(tmp_path, capsys, type_label, word, end, digest):
    out_file = tmp_path / "walk.svg"
    end_flags = [] if end is None else ["--end", end]
    code, out, err = run(
        capsys, "render", "--type", type_label, "--radius", "2", "--word", word, *end_flags,
        "--out", str(out_file),
    )
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("letter", ["3", "-1"])
def test_render_word_with_a_bad_letter_exits_2(tmp_path, capsys, letter):
    out_file = tmp_path / "walk.svg"
    code, out, err = run(capsys, "render", "--type", "A2", "--word", letter, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: letter {letter} out of range 0..2\n")
    assert not out_file.exists()


def test_render_end_without_word_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("alcovewalks.cli._datum_for", fail_if_called)
    out_file = tmp_path / "end.svg"
    code, out, err = run(capsys, "render", "--type", "A2", "--end", "2,1", "--out", str(out_file))
    assert (code, out, err) == (2, "", "error: --end needs --word\n")
    assert not out_file.exists()


def test_render_end_without_word_exits_2_from_the_command_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(alcovewalks.__file__).parents[1]))
    out_file = tmp_path / "end.svg"
    argv = ["render", "--type", "A2", "--end", "2,1", "--out", str(out_file)]
    proc = subprocess.run(
        [sys.executable, "-m", "alcovewalks.cli", *argv], capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: --end needs --word\n")
    assert not out_file.exists()


def test_render_end_without_word_is_checked_for_presence(tmp_path, capsys):
    out_file = tmp_path / "end.svg"
    code, out, err = run(capsys, "render", "--type", "A2", "--end", "", "--out", str(out_file))
    assert (code, out, err) == (2, "", "error: --end needs --word\n")
    assert not out_file.exists()


def _render_marks(capsys, tmp_path, *flags):
    """The start marks, crossings and folds that render draws with these flags."""
    out_file = tmp_path / "walk.svg"
    code, out, err = run(capsys, "render", "--type", "A2", "--radius", "1", *flags, "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    svg = out_file.read_text()
    return tuple(svg.count(f'class="{mark}"') for mark in ("start", "crossing", "fold"))


def test_render_empty_word_draws_the_empty_walk(tmp_path, capsys):
    assert _render_marks(capsys, tmp_path) == (0, 0, 0)
    assert _render_marks(capsys, tmp_path, "--word", "") == (1, 0, 0)


def test_render_empty_end_overlays_the_paths_ending_at_the_identity(tmp_path, capsys):
    assert _render_marks(capsys, tmp_path, "--word", "2,1") == (1, 2, 0)
    # the one path of (2, 1) that ends at the identity folds twice
    assert _render_marks(capsys, tmp_path, "--word", "2,1", "--end", "") == (1, 0, 2)


@pytest.mark.parametrize(
    "type_label, end",
    [("A3", "1,2,3"), ("A3", "1,2,3,1"), ("E6", "1,2,3,1")],
    ids=["A3-reachable", "A3-unreachable", "E6-unreachable"],
)
def test_render_checks_the_rank_before_it_enumerates(tmp_path, capsys, monkeypatch, type_label, end):
    # before it builds the group, too: D16's alone takes about 0.1 s
    monkeypatch.setattr("alcovewalks.cli.AffineWeylGroup", fail_if_called)
    monkeypatch.setattr("alcovewalks.cli.enumerate_folded_paths", fail_if_called)
    out_file = tmp_path / "x.svg"
    code, out, err = run(
        capsys, "render", "--type", type_label, "--radius", "2", "--word", "1,2,3",
        "--end", end, "--out", str(out_file),
    )
    assert (code, out, err) == (2, "", "error: rendering supports rank <= 2 only\n")
    assert not out_file.exists()


def test_paths_end_that_no_path_reaches_prints_no_paths(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A2", "--word", "2,1,0", "--end", "2,1,0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["by_endpoint"] == [] and doc["paths"] == []


class FailingStdout(io.StringIO):
    """A stdout on its own descriptor `fd` that raises `exc` on every
    flush, and on every write too when `writes_fail`; without writes_fail
    the output stays buffered until the flush."""

    def __init__(self, exc, writes_fail, fd):
        super().__init__()
        self.exc, self.writes_fail, self.fd = exc, writes_fail, fd

    def write(self, text):
        if self.writes_fail:
            raise self.exc
        return super().write(text)

    def flush(self):
        raise self.exc

    def fileno(self):
        return self.fd


OUTPUT_COMMANDS = [
    ["count", "--type", "A2", "--word", "2,1,0,2,0"],
    ["paths", "--type", "A2", "--word", "2,1,0"],
    ["oracle", "--type", "A1", "--word", "1,0", "--p", "3"],
    ["verify", "example8"],
]


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("writes_fail", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize(
    "exc, code, err",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), EXIT_CLOSED_STDOUT, ""),
        (OSError(errno.ENOSPC, "No space left on device"), 2,
         "error: [Errno 28] No space left on device\n"),
    ],
    ids=["closed", "full"],
)
def test_failed_stdout_write(tmp_path, capsys, monkeypatch, argv, writes_fail, exc, code, err):
    # a closed stdout ends quietly, a full one with one line; either way the
    # descriptor is pointed at devnull so that the final flush cannot fail
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc, writes_fail, fd))
        assert (main(argv), capsys.readouterr().err) == (code, err)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_reader_closing_the_pipe_ends_the_command_quietly():
    # 16 letters of the A2 bench word: about 280 KB of JSON, more than a
    # pipe holds, so the command is still writing when the reader leaves
    word = "1,2,0,1,0,2,0,1,0,2,0,1,0,2,0,1"
    # block-buffered, as by default, so that output is still buffered at exit
    env = dict(os.environ, PYTHONPATH=str(Path(alcovewalks.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "alcovewalks.cli", "paths", "--type", "A2", "--word", word],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (EXIT_CLOSED_STDOUT, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--type", "A2", "--word", "2,1,0"],
        ["render", "--type", "A2", "--word", "2,1,0"],
    ],
    ids=["paths", "render"],
)
def test_out_in_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("alcovewalks.cli.cells_by_endpoint", fail_if_called)
    monkeypatch.setattr("alcovewalks.cli._datum_for", fail_if_called)
    out_file = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: --out directory {out_file.parent} does not exist\n"
    assert not out_file.parent.exists()
