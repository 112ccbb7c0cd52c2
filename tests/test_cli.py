import time
from importlib import resources

import pytest

from symdesign import elimination
from symdesign.cli import build_parser, main
from symdesign.design import read_design_file
from symdesign.perm import read_group_file


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


@pytest.mark.parametrize("query", ["subdegrees", "primitive"])
def test_group_query_needs_transitive(capsys, tmp_path, query):
    g_file = tmp_path / "g.grp"
    g_file.write_text("degree 4\n(1,2)\n")
    assert run(capsys, "group", query, str(g_file)) == (1, "group is not transitive\n", "")


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
    ],
)
def test_group_bad_generator_line(capsys, tmp_path, body, message):
    g_file = tmp_path / "bad.grp"
    g_file.write_text("degree 5\n" + body)
    code, out, err = run(capsys, "group", "order", str(g_file))
    assert code == 2
    assert out == ""
    assert err == f"error: {g_file}: {message}\n"


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


def test_verify_huge_v_header_is_not_a_table_size(capsys, tmp_path):
    d_file = tmp_path / "huge.design"
    d_file.write_text("v 1000000000\n1,2,1000000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(d_file))
    assert (code, out, err) == (
        1, "not a symmetric design [block_count]: 1 blocks for 1000000000 points\n", ""
    )
    assert time.perf_counter() - start < 0.5


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


def test_families_composite_lambda(capsys):
    code, _, err = run(capsys, "families", "--lambda", "4")
    assert code == 2
    assert "error:" in err


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
    def refuse(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(elimination, "factorize", refuse)
    bound = str((2**61 - 1) * (2**89 - 1))
    assert run(capsys, "eliminate", "--v", "100", "--bound", bound) == (0, "EMPTY\n", "")


def test_group_primitive_regular_group(capsys, tmp_path):
    # Z3 x Z3: every minimal block has size 3, and the first one found wins
    path = tmp_path / "z3z3.grp"
    path.write_text("degree 9\n(1,2,3)(4,5,6)(7,8,9)\n(1,4,7)(2,5,8)(3,6,9)\n")
    assert run(capsys, "group", "primitive", str(path)) == (
        0, "primitive: no (3x3 system)\n1,2,3\n4,5,6\n7,8,9\n", ""
    )
