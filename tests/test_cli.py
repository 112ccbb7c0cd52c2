import ast
import os
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import symdesign
from symdesign import elimination
from symdesign.algebra import factorize
from symdesign.cli import build_parser, main
from symdesign.design import MAX_MASK_BITS, read_design_file
from symdesign.perm import MAX_DEGREE, PermutationGroup, read_group_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_pg(capsys, tmp_path):
    out_file = tmp_path / "pg.design"
    code, out, _ = run(capsys, "construct", "pg", "4", "2", "-o", str(out_file))
    assert code == 0
    assert "(15,7,3)" in out
    D = read_design_file(out_file)
    assert D.verify_symmetric().v == 15


def test_construct_catalog_with_group(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    g_file = tmp_path / "g.grp"
    code, out, _ = run(
        capsys, "construct", "unitary_45_12_3",
        "-o", str(d_file), "--group-out", str(g_file),
    )
    assert code == 0
    assert "(45,12,3)" in out
    G = read_group_file(g_file)
    assert G.order() == 25920
    code2, out2, _ = run(capsys, "flagtest", str(g_file), str(d_file))
    assert code2 == 0
    assert "flag-transitive: yes" in out2
    assert "primitive: yes" in out2
    assert run(capsys, "group", "primitive", str(g_file)) == (0, "primitive: yes\n", "")


def test_construct_diffset(capsys):
    code, out, _ = run(capsys, "construct", "diffset", "cyclic11", "5", "2")
    assert code == 0
    assert "(11,5,2)" in out


def test_construct_diffset_unknown_ambient(capsys):
    code, _, err = run(capsys, "construct", "diffset", "nope", "5", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "what, message",
    [
        (["pg", "3", "12"], "12 is not a prime power"),
        (["pg", "2", "2"], "projective_space needs n >= 3"),
        (["pg", "x", "2"], "construct pg: N must be an integer, got 'x'"),
        (["diffset", "cyclic11", "x", "2"], "construct diffset: K must be an integer, got 'x'"),
        (["pg", "3", "2.0"], "construct pg: Q must be an integer, got '2.0'"),
        (["diffset", "cyclic11", "5", "y"], "construct diffset: LAMBDA must be an integer, got 'y'"),
        (["diffset", "cyclic11", "0", "0"], "k must be in 1..11"),
        (["diffset", "cyclic11", "-1", "0"], "k must be in 1..11"),
        (["diffset", "cyclic11", "12", "11"], "k must be in 1..11"),
        # (2^61 - 1)(2^89 - 1): rejected without factoring
        (["pg", "3", "1427247692705959880439315947500961989719490561"],
         "1427247692705959880439315947500961989719490561 is not a prime power"),
        (["pg", "3"], "construct pg needs: pg N Q"),
        (["diffset", "cyclic11", "5"], "construct diffset needs: diffset AMBIENT K LAMBDA"),
        (["fano_complement", "x"], "construct takes one catalog name, or pg/diffset forms"),
        (["pg", "3", "257"], "projective_space needs q <= 256"),
        (["nonexistent"],
         "unknown catalog name 'nonexistent'; choose from ('fano_complement',"
         " 'paley_11_5_2', 'paley_complement_11_6_3', 'unitary_45_12_3',"
         " 'imprimitive_45_12_3', 'biplane16_ea', 'biplane16_z2z8', 'biplane16_q8z2')"),
        (["diffset", "nope", "5", "2"],
         "unknown ambient group 'nope'; choose from"
         " ['cyclic11', 'cyclic7', 'ea16', 'q8z2', 'z2z8']"),
        (["pg", "16", "2"], "projective_space needs v*k <= 16777216"),
        (["pg", "3", "256"], "projective_space needs v*k <= 16777216"),
    ],
)
def test_construct_bad_input(capsys, what, message):
    code, out, err = run(capsys, "construct", *what)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_diffset_none_found(capsys):
    # 5 * 4 != 3 * 10, so no (11, 5, 3) difference set exists
    assert run(capsys, "construct", "diffset", "cyclic11", "5", "3") == (
        1, "no difference set found\n", ""
    )


@pytest.mark.parametrize("ambient,n", [("cyclic7", "7"), ("cyclic11", "11")])
def test_construct_trivial_diffset_reports_repeated_block(capsys, tmp_path, ambient, n):
    # k = |G| develops |G| copies of the whole group: the same line and exit
    # code as `verify` on that design, and no file written
    out_file = tmp_path / "d.design"
    code, out, err = run(capsys, "construct", "diffset", ambient, n, n, "-o", str(out_file))
    block = ",".join(str(i) for i in range(1, int(n) + 1))
    assert (code, out, err) == (
        1, f"not a symmetric design [repeated_block]: block {block} is repeated\n", ""
    )
    assert not out_file.exists()


def test_construct_unknown_name(capsys):
    code, _, err = run(capsys, "construct", "nonexistent")
    assert code == 2
    assert "error:" in err


def test_construct_group_out_unavailable(capsys, tmp_path):
    code, out, _ = run(
        capsys, "construct", "biplane16_ea", "--group-out", str(tmp_path / "g")
    )
    assert code == 1
    assert "no group available" in out


@pytest.mark.parametrize("flag", ["-o", "--group-out"])
def test_construct_unwritable_output(capsys, tmp_path, flag):
    # the parameter line is already out when the write fails; the exit is a usage error
    path = tmp_path / "missing" / "x"
    assert run(capsys, "construct", "fano_complement", flag, str(path)) == (
        2, "fano_complement: (7,4,2)\n", f"error: {path}: No such file or directory\n"
    )


def test_construct_unwritable_group_after_design(capsys, tmp_path):
    d_file, g_file = tmp_path / "d.design", tmp_path / "missing" / "g.grp"
    assert run(capsys, "construct", "fano_complement", "-o", str(d_file),
               "--group-out", str(g_file)) == (
        2, f"fano_complement: (7,4,2)\nwrote {d_file}\n",
        f"error: {g_file}: No such file or directory\n",
    )


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    build_parser.cache_clear()
    parsed = [build_parser().parse_args(argv) for argv in (
        ["group", "subdegrees", "g.grp", "--point", "2"], ["group", "subdegrees", "g.grp"],
        ["construct", "fano_complement", "-o", "f"], ["construct", "fano_complement"],
    )]
    assert [parsed[0].point, parsed[1].point] == [2, 1]
    assert [parsed[2].output, parsed[3].output] == ["f", None]
    # the subdegrees of a transitive group are the same at every point, so an
    # out-of-range point is what shows a --point left over from the call before
    with resources.as_file(resources.files("symdesign.data") / "sigma45.grp") as g_file:
        at_1 = (0, "1 8 36\n", "")
        assert run(capsys, "group", "subdegrees", str(g_file), "--point", "2") == at_1
        assert run(capsys, "group", "subdegrees", str(g_file)) == at_1
        assert run(capsys, "group", "subdegrees", str(g_file), "--point", "46") == (
            2, "", "error: --point must be in 1..45\n"
        )
        assert run(capsys, "group", "subdegrees", str(g_file)) == at_1
    d_file = tmp_path / "f.design"
    assert run(capsys, "construct", "fano_complement", "-o", str(d_file)) == (
        0, f"fano_complement: (7,4,2)\nwrote {d_file}\n", ""
    )
    assert run(capsys, "construct", "fano_complement") == (0, "fano_complement: (7,4,2)\n", "")
    assert build_parser.cache_info().misses == 1


def test_verify_round_trip(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    run(capsys, "construct", "paley_11_5_2", "-o", str(d_file))
    code, out, _ = run(capsys, "verify", str(d_file))
    assert code == 0
    assert "symmetric (11,5,2)" in out
    assert "(lambda prime)" in out


def test_verify_failure_names_violation(capsys, tmp_path):
    bad = tmp_path / "bad.design"
    bad.write_text("v 4\n1,2\n3,4\n1,3\n2,4\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "[pair_count]" in out


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.design"))
    assert code == 2
    assert "error:" in err


def test_verify_one_point_design_is_trivial(capsys, tmp_path):
    d_file = tmp_path / "one.design"
    d_file.write_text("v 1\n1\n")
    assert run(capsys, "verify", str(d_file)) == (0, "symmetric (1,1,0) (trivial)\n", "")


def test_verify_skips_blank_lines(capsys, tmp_path):
    d_file = tmp_path / "blank.design"
    d_file.write_text("v 3\n\n1,2\n\n2,3\n1,3\n")
    assert run(capsys, "verify", str(d_file)) == (0, "symmetric (3,2,1) (trivial)\n", "")


def test_group_queries(capsys, tmp_path):
    g_file = tmp_path / "g.grp"
    run(capsys, "construct", "imprimitive_45_12_3", "--group-out", str(g_file))
    code, out, _ = run(capsys, "group", "order", str(g_file))
    assert code == 0 and out.strip() == "3240"
    code, out, _ = run(capsys, "group", "subdegrees", str(g_file))
    assert code == 0 and out.strip() == "1 8 36"
    code, out, _ = run(capsys, "group", "primitive", str(g_file))
    assert code == 0
    assert "primitive: no (9x5 system)" in out
    code, out, _ = run(capsys, "group", "orbits", str(g_file))
    assert code == 0
    assert out.strip().count("\n") == 0  # transitive: one orbit line


def _no_orbit_search(self):
    raise AssertionError("is_transitive called")


@pytest.mark.parametrize("query", ["subdegrees", "primitive"])
def test_group_query_needs_transitive(capsys, monkeypatch, tmp_path, query):
    # the query's own pass reports the intransitive group: no orbit search first
    monkeypatch.setattr(PermutationGroup, "is_transitive", _no_orbit_search)
    g_file = tmp_path / "g.grp"
    g_file.write_text("degree 4\n(1,2)\n")
    assert run(capsys, "group", query, str(g_file)) == (1, "group is not transitive\n", "")


@pytest.mark.parametrize("verb", ["group", "flagtest"])
def test_primitivity_errors_other_than_intransitivity_propagate(monkeypatch, tmp_path, verb):
    # only an IntransitiveError means an intransitive group, whatever
    # another ValueError's message says
    g_file, d_file = tmp_path / "g.grp", tmp_path / "d.design"
    g_file.write_text("degree 3\n(1,2,3)\n")
    d_file.write_text("v 3\n1\n2\n3\n")
    argv = ["group", "primitive", str(g_file)] if verb == "group" else [verb, str(g_file), str(d_file)]
    for message in ("some other failure", "this check requires a transitive group"):

        def broken(self, message=message):
            raise ValueError(message)

        monkeypatch.setattr(PermutationGroup, "is_primitive", broken)
        with pytest.raises(ValueError, match=f"^{message}$"):
            main(argv)


@pytest.mark.parametrize("name, line", [("sigma45.grp", "1 8 36\n"), ("psu4_2.grp", "1 12 32\n")])
def test_group_subdegrees_vendored_at_point(capsys, name, line):
    with resources.as_file(resources.files("symdesign.data") / name) as path:
        assert run(capsys, "group", "subdegrees", str(path), "--point", "5") == (0, line, "")


def test_group_point_out_of_range(capsys, tmp_path):
    g_file = tmp_path / "g.grp"
    run(capsys, "construct", "paley_11_5_2", "--group-out", str(g_file))
    code, _, err = run(capsys, "group", "subdegrees", str(g_file), "--point", "12")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("degree", ["-3", "0", "x"])
def test_group_bad_degree_header(capsys, tmp_path, degree):
    g_file = tmp_path / "bad.grp"
    g_file.write_text(f"degree {degree}\n(1,2)\n")
    code, out, err = run(capsys, "group", "order", str(g_file))
    assert code == 2
    assert out == ""
    assert f"error: {g_file}: bad header 'degree {degree}'" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("(1,2)\n(1,2\n", "line 3: malformed cycle notation: '(1,2'"),
        ("(1,2)\n\n(1,9)\n", "line 4: point 9 out of range 1..5"),
        # str.splitlines would break at each of these, an editor does not
        *[
            (f"(1,2){sep}(3,4)\n(1,9)\n", "line 3: point 9 out of range 1..5")
            for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
        ],
    ],
)
def test_group_bad_generator_line(capsys, tmp_path, body, message):
    g_file = tmp_path / "bad.grp"
    g_file.write_text("degree 5\n" + body)
    code, out, err = run(capsys, "group", "order", str(g_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {g_file}: {message}\n"


@pytest.mark.parametrize(
    "digits, shown",
    [
        (20, "degree " + "9" * 20),
        (21, "a degree of 21 digits"),
        (4300, "a degree of 4300 digits"),
    ],
)
def test_group_degree_over_limit_quoted_up_to_20_digits(capsys, tmp_path, digits, shown):
    g_file = tmp_path / "g.grp"
    g_file.write_text(f"degree {'9' * digits}\n(1,2)\n")
    message = f"error: {g_file}: {shown} exceeds the limit {MAX_DEGREE}\n"
    assert run(capsys, "group", "order", str(g_file)) == (2, "", message)


def test_group_degree_limit(capsys, tmp_path):
    g_file = tmp_path / "g.grp"
    g_file.write_text(f"degree {MAX_DEGREE}\n(1,2)\n")
    assert run(capsys, "group", "order", str(g_file)) == (0, "2\n", "")
    g_file.write_text(f"degree {MAX_DEGREE + 1}\n(1,2)\n")
    message = f"error: {g_file}: degree {MAX_DEGREE + 1} exceeds the limit {MAX_DEGREE}\n"
    assert run(capsys, "group", "order", str(g_file)) == (2, "", message)


def src_env() -> dict:
    """The environment with this package's src/ first on PYTHONPATH, for a child process."""
    src = str(Path(symdesign.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def group_order_under_1gib(resource, g_file):
    """`symdesign group order g_file` in a child process limited to 1 GiB
    of address space."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "symdesign.cli", "group", "order", str(g_file)],
        capture_output=True, text=True, env=src_env(), preexec_fn=limit_memory, timeout=60,
    )


def test_every_text_file_names_its_encoding(tmp_path):
    """Under -X warn_default_encoding and -W error::EncodingWarning, a text
    file opened in the locale's encoding kills the command; the package
    data, the readers and both writers must all name UTF-8."""
    commands = [
        (["construct", "unitary_45_12_3", "-o", "d.design", "--group-out", "g.grp"],
         "unitary_45_12_3: (45,12,3)\nwrote d.design\nwrote g.grp\n"),
        (["verify", "d.design"], "symmetric (45,12,3) (lambda prime)\n"),
        (["group", "order", "g.grp"], "25920\n"),
        (["flagtest", "g.grp", "d.design"], "flag-transitive: yes; primitive: yes\n"),
        (["eliminate", "--table", "t1"],
         "#R t1-fano PASS (4,2)\n#R t1-paley PASS (5,2) (6,3)\n#R t1-unitary PASS (12,3)\n"
         "3 rows, 3 PASS, 0 not PASS\n"),
    ]
    for argv, stdout in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "symdesign.cli", *argv],
            capture_output=True, text=True, env=src_env(), cwd=tmp_path, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, ""), argv


def test_group_huge_degree_exits_before_allocating(tmp_path):
    """A header far above MAX_DEGREE exits 2 under a 1 GiB address-space
    limit, in well under a second of CPU time, instead of building an image
    list of that length."""
    resource = pytest.importorskip("resource")
    g_file = tmp_path / "huge.grp"
    g_file.write_text("degree 1000000000\n(1,2)\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = group_order_under_1gib(resource, g_file)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {g_file}: degree 1000000000 exceeds the limit {MAX_DEGREE}\n"
    assert cpu_s < 1.0


@pytest.mark.parametrize(
    "body, order", [("(65535,65536)", 2), ("(1,2)\n(65535,65536)", 4)], ids=["last", "first-last"]
)
def test_group_order_at_max_degree(tmp_path, body, order):
    """A chain opens a level only at a point some generator moves, so the
    order of a group of degree MAX_DEGREE comes out under a 1 GiB
    address-space limit."""
    resource = pytest.importorskip("resource")
    g_file = tmp_path / "max.grp"
    g_file.write_text(f"degree {MAX_DEGREE}\n{body}\n")
    proc = group_order_under_1gib(resource, g_file)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{order}\n", "")


@pytest.mark.parametrize(
    "argv, keyword", [(["group", "order"], "degree"), (["verify"], "v")], ids=["group", "design"]
)
def test_header_number_too_long_for_int(capsys, tmp_path, argv, keyword):
    # int() refuses strings longer than the interpreter's digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts decimal strings of any length here")
    path = tmp_path / "long.txt"
    path.write_text(f"{keyword} {'9' * (limit + 1)}\n")
    message = f"error: {path}: bad header: {keyword} has too many digits\n"
    assert run(capsys, *argv, str(path)) == (2, "", message)


@pytest.mark.parametrize("v", ["-3", "0", "x"])
def test_verify_bad_design_header(capsys, tmp_path, v):
    d_file = tmp_path / "bad.design"
    d_file.write_text(f"v {v}\n1,2\n")
    code, out, err = run(capsys, "verify", str(d_file))
    assert code == 2
    assert out == ""
    assert f"error: {d_file}: bad header 'v {v}'" in err


NOT_A_POINT = "points must be integers in 1..7"


@pytest.mark.parametrize(
    "block, reason",
    [
        pytest.param("2,x", NOT_A_POINT, id="2,x"),
        pytest.param("0,1", NOT_A_POINT, id="0,1"),
        pytest.param("1,8", NOT_A_POINT, id="1,8"),
        pytest.param("1,,2", NOT_A_POINT, id="1,,2"),
        # the second line holds point 1 as "1", so "01" must not pass as a new point
        pytest.param("1,01", "repeated point 1", id="1,01"),
    ],
)
def test_verify_bad_block_entry(capsys, tmp_path, block, reason):
    d_file = tmp_path / "bad.design"
    d_file.write_text(f"v 7\n1,2,4\n{block}\n")
    code, out, err = run(capsys, "verify", str(d_file))
    assert (code, out, err) == (2, "", f"error: {d_file}: line 3: bad block '{block}': {reason}\n")


# the Fano plane, point 2 in the middle of its three lines so that
# stripping a line does not touch the spelling under test
FANO_2_INSIDE = ["1,2,4", "3,2,5", "6,2,7", "3,4,6", "4,5,7", "5,6,1", "7,1,3"]


@pytest.mark.parametrize("spelling", [" 2", "02", "+2", "2 "])
@pytest.mark.parametrize("respelled_lines", [(0,), (2,), (0, 1, 2)], ids=["first", "last", "all"])
def test_verify_point_spellings_read_as_int(capsys, tmp_path, spelling, respelled_lines):
    # a point is whatever int() reads in 1..v, whether the plain spelling
    # comes before the other one in the file, after it, or not at all
    plain, respelled = tmp_path / "plain.design", tmp_path / "respelled.design"
    plain.write_text("v 7\n" + "\n".join(FANO_2_INSIDE) + "\n")
    lines = [
        line.replace(",2,", f",{spelling},") if i in respelled_lines else line
        for i, line in enumerate(FANO_2_INSIDE)
    ]
    respelled.write_text("v 7\n" + "\n".join(lines) + "\n")
    assert read_design_file(respelled) == read_design_file(plain)
    assert run(capsys, "verify", str(respelled)) == (0, "symmetric (7,3,1)\n", "")


BOM = "\ufeff"


def test_verify_reads_past_a_byte_order_mark(capsys, tmp_path):
    d_file = tmp_path / "bom.design"
    d_file.write_text(BOM + "v 7\n" + "\n".join(FANO_2_INSIDE) + "\n", encoding="utf-8")
    assert run(capsys, "verify", str(d_file)) == (0, "symmetric (7,3,1)\n", "")


def test_group_reads_past_a_byte_order_mark(capsys, tmp_path):
    g_file = tmp_path / "bom.grp"
    g_file.write_text(BOM + "degree 3\n(1,2,3)\n", encoding="utf-8")
    assert run(capsys, "group", "order", str(g_file)) == (0, "3\n", "")


def test_byte_order_mark_inside_a_block_is_a_bad_block(capsys, tmp_path):
    d_file = tmp_path / "bom.design"
    d_file.write_text(f"v 7\n{BOM}1,2,4\n", encoding="utf-8")
    assert run(capsys, "verify", str(d_file)) == (
        2, "", f"error: {d_file}: line 2: bad block {BOM + '1,2,4'!r}: {NOT_A_POINT}\n"
    )


def test_byte_order_mark_before_undecodable_bytes(capsys, tmp_path):
    d_file = tmp_path / "bom.design"
    d_file.write_bytes(BOM.encode() + b"v 7\n1,2,4\n\xff\n")
    assert run(capsys, "verify", str(d_file)) == (
        2, "", f"error: {d_file}: not UTF-8 text (invalid start byte)\n"
    )


def test_verify_huge_v_header_is_not_a_table_size(capsys, tmp_path):
    d_file = tmp_path / "huge.design"
    d_file.write_text("v 1000000000\n1,2,1000000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(d_file))
    assert (code, out, err) == (
        1, "not a symmetric design [block_count]: 1 blocks for 1000000000 points\n", ""
    )
    assert time.perf_counter() - start < 0.5


def test_verify_point_past_the_mask_budget_exits_before_allocating(capsys, tmp_path):
    # a point whose bit alone would pass MAX_MASK_BITS is refused before the
    # bit is made
    d_file = tmp_path / "huger.design"
    d_file.write_text("v 100000000000\n1,2,100000000000\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", str(d_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        f"error: {d_file}: line 2: the blocks so far need more than {MAX_MASK_BITS} bits"
        " as masks\n"
    )
    assert peak < 2**20


def test_verify_block_with_repeated_point(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    run(capsys, "construct", "fano_complement", "-o", str(d_file))
    lines = d_file.read_text().splitlines()
    assert lines[1] == "1,2,4,7"
    lines[1] = "1,1,2,4,7"
    d_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(d_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {d_file}: line 2: bad block '1,1,2,4,7': repeated point 1\n"


def test_verify_repeated_block(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    run(capsys, "construct", "fano_complement", "-o", str(d_file))
    lines = d_file.read_text().splitlines()
    d_file.write_text("\n".join(lines + [lines[1]]) + "\n")
    code, out, err = run(capsys, "verify", str(d_file))
    assert (code, out, err) == (
        1, "not a symmetric design [repeated_block]: block 1,2,4,7 is repeated\n", ""
    )


def test_flagtest_imprimitive(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    g_file = tmp_path / "g.grp"
    run(
        capsys, "construct", "imprimitive_45_12_3",
        "-o", str(d_file), "--group-out", str(g_file),
    )
    code, out, _ = run(capsys, "flagtest", str(g_file), str(d_file))
    assert code == 0
    assert "flag-transitive: yes; primitive: no (9x5 system)" in out


def test_flagtest_degree_mismatch(capsys, tmp_path):
    d_file = tmp_path / "d.design"
    g_file = tmp_path / "g.grp"
    run(capsys, "construct", "paley_11_5_2", "-o", str(d_file))
    run(capsys, "construct", "unitary_45_12_3", "--group-out", str(g_file))
    code, out, _ = run(capsys, "flagtest", str(g_file), str(d_file))
    assert code == 1
    assert "precondition failed" in out


@pytest.mark.parametrize(
    "blocks, expected",
    [
        ("", (1, "precondition failed: no blocks\n", "")),
        ("1,2\n", (0, "flag-transitive: yes; primitive: no (intransitive)\n", "")),
    ],
    ids=["no-blocks", "intransitive"],
)
def test_flagtest_intransitive_group(capsys, monkeypatch, tmp_path, blocks, expected):
    monkeypatch.setattr(PermutationGroup, "is_transitive", _no_orbit_search)
    g_file, d_file = tmp_path / "g.grp", tmp_path / "d.design"
    g_file.write_text("degree 3\n(1,2)\n")
    d_file.write_text("v 3\n" + blocks)
    assert run(capsys, "flagtest", str(g_file), str(d_file)) == expected


@pytest.mark.parametrize("missing", ["group", "design"])
def test_flagtest_missing_file(capsys, tmp_path, missing):
    g_file, d_file = tmp_path / "g.grp", tmp_path / "d.design"
    run(capsys, "construct", "fano_complement", "-o", str(d_file), "--group-out", str(g_file))
    path = {"group": g_file, "design": d_file}[missing]
    path.unlink()
    assert run(capsys, "flagtest", str(g_file), str(d_file)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{path}'\n"
    )


@pytest.mark.parametrize("bad", ["group", "design"])
def test_flagtest_undecodable_file_is_named(capsys, tmp_path, bad):
    g_file, d_file = tmp_path / "g.grp", tmp_path / "d.design"
    run(capsys, "construct", "fano_complement", "-o", str(d_file), "--group-out", str(g_file))
    path = {"group": g_file, "design": d_file}[bad]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert run(capsys, "flagtest", str(g_file), str(d_file)) == (
        2, "", f"error: {path}: not UTF-8 text (invalid start byte)\n"
    )


def test_eliminate_single_scan(capsys):
    code, out, _ = run(capsys, "eliminate", "--v", "11", "--bound", "60")
    assert code == 0
    assert out.strip() == "(5,2) (6,3)"


def test_eliminate_empty_scan(capsys):
    code, out, _ = run(capsys, "eliminate", "--v", "28431", "--bound", "645120")
    assert code == 0
    assert out.strip() == "EMPTY"


def test_eliminate_range_below_three_is_empty(capsys):
    for v, bound in (("4", "12"), ("11", "1"), ("11", "2")):
        code, out, err = run(capsys, "eliminate", "--v", v, "--bound", bound)
        assert (code, out, err) == (0, "EMPTY\n", ""), (v, bound)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--v", "3", "--bound", "12"], "admissible needs v >= 4"),
        (["--v", "11", "--bound", "0"], "admissible needs k_bound >= 1"),
        (["--table", "t2"], "no catalog rows match 't2'"),
        (["--v", "11", "--bound", "-5"], "admissible needs k_bound >= 1"),
    ],
)
def test_eliminate_bad_input(capsys, argv, message):
    code, out, err = run(capsys, "eliminate", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eliminate_table(capsys):
    code, out, _ = run(capsys, "eliminate", "--table", "t1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("#R")]
    assert lines == [
        "#R t1-fano PASS (4,2)",
        "#R t1-paley PASS (5,2) (6,3)",
        "#R t1-unitary PASS (12,3)",
    ]
    assert "3 rows, 3 PASS, 0 not PASS" in out


def test_eliminate_table_failing_row(capsys, monkeypatch):
    monkeypatch.setitem(elimination.EXPECTED_PAIRS, "t1-fano", [])
    assert run(capsys, "eliminate", "--table", "t1") == (
        1,
        "#R t1-fano FAIL (4,2) [expected EMPTY, scan found [AdmissiblePair(k=4, lam=2)]]\n"
        "#R t1-paley PASS (5,2) (6,3)\n"
        "#R t1-unitary PASS (12,3)\n"
        "3 rows, 2 PASS, 1 not PASS\n",
        "",
    )


def test_eliminate_all_tables(capsys):
    code, out, _ = run(capsys, "eliminate", "--table", "all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("#R")]
    assert len(lines) == 32
    assert all(" PASS " in l for l in lines)
    assert any("excluded by external classification" in l for l in lines)


def test_eliminate_missing_args(capsys):
    code, _, err = run(capsys, "eliminate", "--v", "11")
    assert code == 2
    assert "error:" in err


def test_families(capsys):
    code, out, _ = run(capsys, "families", "--lambda", "3")
    assert code == 0
    assert "(45,12,3,9,5,3)" in out
    assert "(45,12,3,5,9,2)" in out


@pytest.mark.parametrize("lam, count", [("2", 1), ("3", 2), ("5", 2), ("7", 3)])
def test_families_prints_each_family_once(capsys, lam, count):
    # at lambda = 2 and 3 two rules give the same family
    code, out, err = run(capsys, "families", "--lambda", lam)
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", count)
    assert len(set(lines)) == count
    assert lines[0].startswith(f"(v,k,lambda,c,d,l) = ({int(lam) ** 2 * (int(lam) + 2)},")


def test_families_composite_lambda(capsys):
    for lam in ("4", "1", "0", "-3"):
        assert run(capsys, "families", "--lambda", lam) == (
            2, "", "error: --lambda must be prime\n"
        ), lam


def test_determinism_byte_identical(capsys, tmp_path):
    files = []
    for i in (1, 2):
        d = tmp_path / f"d{i}.design"
        g = tmp_path / f"g{i}.grp"
        run(capsys, "construct", "unitary_45_12_3", "-o", str(d), "--group-out", str(g))
        files.append((d.read_bytes(), g.read_bytes()))
    assert files[0] == files[1]
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "eliminate", "--table", "all")
        outs.append(out)
    assert outs[0] == outs[1]


def test_eliminate_small_range_hard_bound(capsys, monkeypatch):
    # only gcd(v - 1, bound), a divisor of v - 1, may reach factorize
    bound = str((2**61 - 1) * (2**89 - 1))
    for v in (100, 1000003):
        def refuse(m, n=v - 1):
            if n % m:
                raise AssertionError(f"factorize({m}) called")
            return factorize(m)

        monkeypatch.setattr(elimination, "factorize", refuse)
        assert run(capsys, "eliminate", "--v", str(v), "--bound", bound) == (
            0, "EMPTY\n", ""
        )


def test_group_primitive_regular_group(capsys, tmp_path):
    # Z3 x Z3: every minimal block has size 3, and the first one found wins
    path = tmp_path / "z3z3.grp"
    path.write_text("degree 9\n(1,2,3)(4,5,6)(7,8,9)\n(1,4,7)(2,5,8)(3,6,9)\n")
    assert run(capsys, "group", "primitive", str(path)) == (
        0, "primitive: no (3x3 system)\n1,2,3\n4,5,6\n7,8,9\n", ""
    )


def test_library_imports_only_the_stdlib():
    # ast.walk reaches imports inside functions too; relative imports are the package's own
    for path in sorted(Path(symdesign.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                assert root in sys.stdlib_module_names, (path.name, node.lineno, name)


def test_importing_the_library_loads_no_dataclasses_or_resources():
    # package data is read through importlib.resources only when asked for.
    # -S keeps site from loading either module first (a .pth file may), and
    # taking sys.modules before and after discounts what start-up loads anyway
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import symdesign.algebra, symdesign.perm, symdesign.design\n"
        "import symdesign.constructions, symdesign.elimination, symdesign.cli\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new\n"
        "             if m == 'dataclasses' or m.startswith('importlib.resources')))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", child],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
