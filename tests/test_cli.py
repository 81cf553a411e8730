"""End-to-end command-line behaviour via main(argv)."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import kernels_buildable, rand_stream

import tinprov
from tinprov.cli import _load_scope, build_parser, main
from tinprov.core import VertexTable
from tinprov.synth import write_stream

EXAMPLE_CSV = """\
v1,v2,1,3
v2,v0,3,5
v0,v1,4,3
v1,v2,5,7
v2,v1,7,2
v2,v0,8,1
"""


PROP_SPARSE_EXAMPLE = (
    "vertex,origin,quantity\r\n"
    "v1,v1,1.657142857142857\r\n"
    "v1,v2,0.3428571428571428\r\n"
    "v2,v1,3.314285714285715\r\n"
    "v2,v2,0.6857142857142857\r\n"
    "v0,v1,2.028571428571429\r\n"
    "v0,v2,0.9714285714285715\r\n"
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.csv"
    path.write_text(EXAMPLE_CSV)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_run_lifo_snapshot(example_file, capsys):
    code, out, err = run_cli(["run", example_file, "--policy", "lifo"], capsys)
    assert code == 0
    rows = parse_csv(out)
    by_vertex = {}
    for r in rows:
        by_vertex.setdefault(r["vertex"], []).append((r["origin"], r["quantity"]))
    assert by_vertex == {
        "v0": [("v1", "2.0"), ("v1", "1.0")],
        "v1": [("v1", "2.0")],
        "v2": [("v1", "1.0"), ("v2", "2.0"), ("v1", "1.0")],
    }
    assert "interactions: 6" in err
    assert "alerts: 0" in err


def test_run_noprov_default(example_file, capsys):
    code, out, _ = run_cli(["run", example_file], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert {r["vertex"]: (r["origin"], r["quantity"]) for r in rows} == {
        "v0": ("", "3.0"),
        "v1": ("", "2.0"),
        "v2": ("", "4.0"),
    }


@pytest.mark.parametrize(
    "options, text",
    [
        (
            ["--policy", "lrb"],
            "vertex,origin,quantity,birth_time\r\n"
            "v1,v1,2.0,1.0\r\n"
            "v2,v1,4.0,5.0\r\n"
            "v0,v1,1.0,1.0\r\n"
            "v0,v2,2.0,3.0\r\n",
        ),
        (
            ["--policy", "lifo", "--paths"],
            "vertex,origin,quantity,path\r\n"
            "v1,v1,2.0,v1|v2\r\n"
            "v2,v1,1.0,v1|v2|v0|v1\r\n"
            "v2,v2,2.0,v2|v0|v1\r\n"
            "v2,v1,1.0,v1\r\n"
            "v0,v1,2.0,v1|v2\r\n"
            "v0,v1,1.0,v1|v2\r\n",
        ),
        (
            ["--policy", "prop-sparse", "--window", "2"],
            "vertex,origin,quantity\r\n"
            "v1,<unknown>,2.0\r\n"
            "v2,<unknown>,4.0\r\n"
            "v0,<unknown>,3.0\r\n",
        ),
        (["--policy", "prop-sparse", "--budget", "C=2,f=0.5"], PROP_SPARSE_EXAMPLE),
        # the odd bank is reset after interaction 4; the even one keeps origins
        (["--policy", "prop-sparse", "--window", "4"], PROP_SPARSE_EXAMPLE),
    ],
    ids=[
        "lrb",
        "lifo-paths",
        "prop-sparse-window",
        "prop-sparse-budget",
        "prop-sparse-window-4",
    ],
)
def test_exact_output(example_file, capsys, options, text):
    code, out, _ = run_cli(["run", example_file, *options], capsys)
    assert code == 0
    assert out == text


@pytest.mark.parametrize(
    "options",
    [["--policy", "fifo"], ["--policy", "lrb"], ["--policy", "lifo", "--paths"]],
    ids=["fifo", "lrb", "lifo-paths"],
)
def test_json_format(example_file, capsys, options):
    _, out, _ = run_cli(["run", example_file, *options], capsys)
    header = out.splitlines()[0].split(",")
    code, out, _ = run_cli(["run", example_file, *options, "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list)
    assert sum(r["quantity"] for r in rows) == pytest.approx(9.0)
    assert rows and all(list(r) == header for r in rows)


@pytest.mark.parametrize(
    "options, header",
    [
        (["--policy", "lrb"], "vertex,origin,quantity,birth_time"),
        (["--policy", "lifo", "--paths"], "vertex,origin,quantity,path"),
    ],
    ids=["lrb", "lifo-paths"],
)
def test_empty_snapshot_header(tmp_path, capsys, options, header):
    path = tmp_path / "empty.csv"
    path.write_text("# no interactions\n")
    code, out, _ = run_cli(["run", str(path), *options], capsys)
    assert code == 0
    assert out == header + "\r\n"


def test_output_file(example_file, tmp_path, capsys):
    dest = tmp_path / "snap.csv"
    code, out, _ = run_cli(["run", example_file, "-o", str(dest)], capsys)
    assert code == 0 and out == ""
    assert parse_csv(dest.read_text())


def test_birth_time_column(example_file, capsys):
    _, out, _ = run_cli(["run", example_file, "--policy", "lrb"], capsys)
    rows = parse_csv(out)
    assert all("birth_time" in r for r in rows)


SIGNED_BIRTHS_CSV = """\
a,b,0,2
b,c,-0,1
c,c,-0,3
a,a,0,1
d,b,1,2
d,b,1,2
b,d,1,4
c,a,2,5
a,a,2,2
"""

# each vertex's rows in buffer (heap) order; a birth at -0 prints as -0.0
SIGNED_BIRTH_ROWS = {
    ("lrb",): "a,a,1.0,0.0 a,a,1.0,0.0 a,c,2.0,-0.0 a,c,2.0,2.0 b,d,1.0,1.0 d,a,1.0,0.0"
    " d,d,2.0,1.0 d,d,1.0,1.0",
    ("lrb", "--coalesce"): "a,a,2.0,0.0 a,c,2.0,2.0 a,c,2.0,-0.0 b,d,1.0,1.0 d,a,1.0,0.0"
    " d,d,3.0,1.0",
    ("mrb",): "a,c,2.0,2.0 a,a,1.0,0.0 a,c,2.0,-0.0 a,a,1.0,0.0 b,a,1.0,0.0 d,d,2.0,1.0"
    " d,d,2.0,1.0",
    ("mrb", "--coalesce"): "a,c,2.0,2.0 a,c,2.0,-0.0 a,a,2.0,0.0 b,a,1.0,0.0 d,d,4.0,1.0",
}


@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("options", list(SIGNED_BIRTH_ROWS))
def test_birth_time_keeps_its_sign(options, kernels, tmp_path, capsys, monkeypatch):
    if not kernels:
        monkeypatch.setattr(tinprov._kernels, "AVAILABLE", False)
    path = tmp_path / "signed.csv"
    path.write_text(SIGNED_BIRTHS_CSV)
    code, out, _ = run_cli(["run", str(path), "--policy", *options], capsys)
    assert code == 0
    rows = SIGNED_BIRTH_ROWS[options].split()
    assert out == "vertex,origin,quantity,birth_time\r\n" + "".join(r + "\r\n" for r in rows)


def test_paths_column(example_file, capsys):
    _, out, _ = run_cli(["run", example_file, "--policy", "lifo", "--paths"], capsys)
    rows = parse_csv(out)
    assert len(rows) == 6
    for r in rows:
        assert r["path"].split("|")[0] == r["origin"]


@pytest.mark.parametrize("policy", ["fifo", "lifo", "lrb", "mrb"])
def test_paths_output_same_in_kernels(policy, tmp_path, capsys, monkeypatch, compiled):
    """Routes replay in the kernels, with the stdout of the pure-Python replay."""
    path = tmp_path / "loops.csv"
    with open(path, "w") as fh:
        write_stream(fh, rand_stream(20, 1500, seed=6, self_loops=True))
    runs = [
        ["run", str(path), "--policy", policy, "--paths", *extra]
        for extra in ([], ["--format", "json"], ["--top", "3"], ["--top", "2", "--format", "json"])
    ]
    kernel = [run_cli(argv, capsys) for argv in runs]
    monkeypatch.setattr(tinprov._kernels, "AVAILABLE", False)
    python = [run_cli(argv, capsys) for argv in runs]
    assert [out for _, out, _ in kernel] == [out for _, out, _ in python]
    assert all(code == 0 and "\nbackend: compiled\n" in err for code, _, err in kernel)
    assert all("\nbackend: python\n" in err for _, _, err in python)


def test_top_limits_vertices(example_file, capsys):
    _, out, _ = run_cli(["run", example_file, "--top", "1"], capsys)
    rows = parse_csv(out)
    assert [r["vertex"] for r in rows] == ["v2"]


def test_every_k_sections(example_file, capsys):
    _, out, _ = run_cli(["run", example_file, "--snapshot-at", "every-k=2"], capsys)
    headers = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert headers == [
        "# after interaction 2",
        "# after interaction 4",
        "# after interaction 6",
    ]


def test_every_k_trailing_partial(example_file, capsys):
    _, out, _ = run_cli(["run", example_file, "--snapshot-at", "every-k=4"], capsys)
    headers = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert headers == ["# after interaction 4", "# after interaction 6"]


def test_strict_mode(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("v0,v1,1,3\nv1,v2,oops,2\nv2,v0,3,1\n")
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0
    assert "line 2" in err and "rejected" in err
    assert parse_csv(out)
    code, _, err = run_cli(["run", str(path), "--strict"], capsys)
    assert code == 1
    assert "strict" in err


def test_selective_topk(example_file, capsys):
    _, out, _ = run_cli(
        ["run", example_file, "--policy", "prop-sparse", "--selective", "topk=1"], capsys
    )
    rows = parse_csv(out)
    assert rows
    assert set(r["origin"] for r in rows) <= {"v1", "<rest>"}


def test_selective_file(example_file, tmp_path, capsys):
    sel = tmp_path / "tracked.txt"
    sel.write_text("v2\n")
    _, out, _ = run_cli(
        ["run", example_file, "--policy", "prop-dense", "--selective", str(sel)], capsys
    )
    rows = parse_csv(out)
    assert set(r["origin"] for r in rows) <= {"v2", "<rest>"}
    assert any(r["origin"] == "v2" for r in rows)


def test_selective_file_indented_comment(example_file, tmp_path, capsys):
    # comment lines are recognised after stripping, as in the input file
    plain = tmp_path / "plain.txt"
    plain.write_text("v2\n")
    indented = tmp_path / "indented.txt"
    indented.write_text("  # note\nv2\n\t# another note\n")
    argv = ["run", example_file, "--policy", "prop-sparse", "--selective"]
    code, out, _ = run_cli([*argv, str(indented)], capsys)
    assert code == 0
    assert out == run_cli([*argv, str(plain)], capsys)[1]


def test_byte_order_mark_is_not_part_of_a_label(example_file, tmp_path, capsys, monkeypatch):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(example_file).read_bytes())
    for policy in ("lifo", "prop-sparse"):
        plain = run_cli(["run", example_file, "--policy", policy], capsys)
        assert run_cli(["run", str(bom), "--policy", policy], capsys)[:2] == plain[:2]
        stdin = io.TextIOWrapper(io.BytesIO(bom.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run_cli(["run", "-", "--policy", policy], capsys)[:2] == plain[:2]


def test_byte_order_mark_in_selective_file(example_file, tmp_path, capsys):
    sel = tmp_path / "tracked.txt"
    sel.write_bytes("\ufeffv1\n".encode())
    code, out, _ = run_cli(
        ["run", example_file, "--policy", "prop-dense", "--selective", str(sel)], capsys
    )
    assert code == 0
    assert {r["origin"] for r in parse_csv(out)} == {"v1", "<rest>"}


def test_selective_file_unknown_label(example_file, tmp_path, capsys):
    sel = tmp_path / "tracked.txt"
    sel.write_text("v2\nzz\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", example_file, "--policy", "prop-dense", "--selective", str(sel)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'zz'" in err and "does not occur in the input" in err


def test_groups(example_file, tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    groups.write_text("v0,west\nv1,east\nv2,east\n")
    _, out, _ = run_cli(
        ["run", example_file, "--policy", "prop-dense", "--groups", str(groups)], capsys
    )
    rows = parse_csv(out)
    assert set(r["origin"] for r in rows) <= {"west", "east"}


def test_groups_row_without_group_is_usage_error(example_file, tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    groups.write_text("v0,west\nv1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", example_file, "--policy", "prop-dense", "--groups", str(groups)])
    assert exc.value.code == 2
    assert "--groups line 2" in capsys.readouterr().err


@pytest.mark.parametrize("comment", ["  # note", "  # note, x"])
def test_groups_file_indented_comment(example_file, tmp_path, capsys, comment):
    """An indented comment is skipped: it is neither a short row nor a label."""
    groups = tmp_path / "groups.csv"
    groups.write_text(f"v0,west\n{comment}\nv1,east\nv2,east\n")
    args = build_parser().parse_args(["run", example_file, "--groups", str(groups)])
    table = VertexTable()
    for label in ("v0", "v1", "v2"):
        table.intern(label)
    scope = _load_scope(args, None, None, table, [])
    assert scope.slot_labels == ["west", "east"]
    clean = tmp_path / "clean.csv"
    clean.write_text("v0,west\nv1,east\nv2,east\n")
    outs = [
        run_cli(["run", example_file, "--policy", "prop-sparse", "--groups", str(f)], capsys)[1]
        for f in (groups, clean)
    ]
    assert outs[0] == outs[1] and parse_csv(outs[0])


@pytest.fixture
def people_file(tmp_path):
    """alice, bob, carol and dave, as vertex indices 0 to 3."""
    path = tmp_path / "people.csv"
    path.write_text("alice,bob,1,3\nbob,carol,2,2\ncarol,dave,3,1\n")
    return str(path)


def test_groups_missing_vertex_is_named_by_label(people_file, tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    groups.write_text("alice,west\nbob,east\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", people_file, "--policy", "prop-sparse", "--groups", str(groups)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("error: group map missing 2 vertices (e.g. 'carol')")


def test_selective_duplicate_is_named_by_label(people_file, tmp_path, capsys):
    sel = tmp_path / "tracked.txt"
    sel.write_text("bob\nalice\ncarol\nalice\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", people_file, "--policy", "prop-sparse", "--selective", str(sel)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("error: selective vertex set contains duplicates (e.g. 'alice')")


def test_window_and_unknown_label(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("".join(f"a,b,{t},1\n" for t in range(1, 9)))
    _, out, _ = run_cli(
        ["run", str(path), "--policy", "prop-sparse", "--window", "2"], capsys
    )
    rows = parse_csv(out)
    origins = set(r["origin"] for r in rows)
    assert "<unknown>" in origins


def test_window_reset_keeps_sub_epsilon_mass(tmp_path, capsys):
    # b's 0.3 is at most epsilon when the first reset comes; it stays as UNKNOWN
    path = tmp_path / "subeps.csv"
    path.write_text("a,b,1,0.3\nc,d,2,1\ne,b,3,5\nc,d,4,1\n")
    code, out, err = run_cli(
        ["run", str(path), "--policy", "prop-sparse", "--window", "2", "--epsilon", "0.5"],
        capsys,
    )
    assert code == 0
    rows = [(r["origin"], r["quantity"]) for r in parse_csv(out) if r["vertex"] == "b"]
    assert rows == [("<unknown>", "0.3"), ("e", "5.0")]
    assert "dropped_dust: 0\n" in err


def test_budget_flag(capsys, tmp_path):
    stream = tmp_path / "hub.csv"
    main(["synth", str(stream), "--vertices", "30", "--interactions", "2000",
          "--seed", "11", "--shape", "hub"])
    capsys.readouterr()
    code, out, err = run_cli(
        ["run", str(stream), "--policy", "prop-sparse", "--budget", "C=3,f=0.5"], capsys
    )
    assert code == 0
    by_vertex = {}
    for r in parse_csv(out):
        by_vertex.setdefault(r["vertex"], []).append(r)
    assert all(len(rows) <= 3 for rows in by_vertex.values())
    assert "shrink_avg:" in err and "shrink_pct:" in err


def test_alert_threshold(tmp_path, capsys):
    path = tmp_path / "chain.csv"
    path.write_text("a,b,1,20000\nb,c,2,20000\n")
    code, out, err = run_cli(
        ["run", str(path), "--policy", "prop-dense", "--alert-threshold", "10000"], capsys
    )
    assert code == 0
    assert "alert: index=1 vertex=c" in err
    assert "alerts: 1" in err


def test_synth_then_run(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    assert main(["synth", str(stream), "--vertices", "6", "--interactions", "100",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(["run", str(stream), "--policy", "lrb"], capsys)
    assert code == 0
    assert parse_csv(out)


# the message of each configuration rule, by the options that break it
CONFIG_MESSAGES = {
    "--policy prop-sparse --window 0": "window must be a positive interaction count",
    "--policy prop-sparse --window 3 --budget C=4":
        "selective/grouped, window and budget are mutually exclusive",
    "--policy prop-dense --budget C=4":
        "window and budget mechanisms need sparse provenance lists",
    "--policy prop-sparse --paths": "path tracking is only meaningful for element policies",
    "--policy fifo --coalesce": "coalescing applies to generation-time policies only",
    "--policy lrb --coalesce --paths": "coalescing would merge parcels with distinct paths",
    "--epsilon -1": "epsilon must be finite and non-negative",
    "--policy fifo --window 3":
        "selective/grouped, window and budget only apply to proportional policies",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "x.csv", "--policy", "lifo", "--alert-threshold", "5"],
        ["run", "x.csv", "--policy", "prop-dense", "--alert-threshold", "5",
         "--snapshot-at", "every-k=2"],
        ["run", "x.csv", "--budget", "C=0"],
        ["run", "x.csv", "--budget", "f=0.5"],
        ["run", "x.csv", "--snapshot-at", "sometimes"],
        ["run", "x.csv", "--snapshot-at", "every-k=x"],
        ["run", "x.csv", "--policy", "prop-sparse", "--selective", "topk=x"],
        ["run", "x.csv", "--epsilon", "nan"],
        ["run", "x.csv", "--epsilon", "inf"],
        ["run", "x.csv", "--policy", "prop-sparse", "--alert-threshold", "nan"],
        ["run", "x.csv", "--policy", "prop-sparse", "--alert-threshold", "inf"],
        ["run", "x.csv", "--policy", "prop-sparse", "--alert-threshold=-inf"],
        ["synth", "-", "--vertices", "1", "--interactions", "5"],
        ["run", "x.csv", "--top", "-1"],
        ["run", "x.csv", "--policy", "fifo", "--window", "3"],
        ["run", "x.csv", "--policy", "prop-sparse", "--selective", "topk=0"],
        ["run", "x.csv", "--policy", "prop-sparse", "--window", "0"],
        ["run", "x.csv", "--policy", "prop-sparse", "--window", "3", "--budget", "C=4"],
        ["run", "x.csv", "--policy", "prop-dense", "--budget", "C=4"],
        ["run", "x.csv", "--policy", "prop-sparse", "--paths"],
        ["run", "x.csv", "--policy", "fifo", "--coalesce"],
        ["run", "x.csv", "--policy", "lrb", "--coalesce", "--paths"],
        ["run", "x.csv", "--epsilon", "-1"],
    ],
)
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot open" not in err  # refused before x.csv is read
    if "--window" in argv:
        assert "window" in err.splitlines()[-1]  # the message names the option given
    message = CONFIG_MESSAGES.get(" ".join(argv[2:]))
    if message is not None:
        assert err.splitlines()[-1].endswith(f"error: {message}")


def test_import_loads_no_numpy(example_file, tmp_path):
    """Only a promoted proportional row loads NumPy: not an import, a small
    or budgeted prop-sparse run, or an element run through the C kernels."""
    script = (
        "import sys, tinprov, tinprov.cli\n"
        "if sys.argv[1:]:\n"
        "    assert tinprov.cli.main(sys.argv[1:]) == 0\n"
        "print('numpy' in sys.modules)"
    )
    src = str(Path(tinprov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = ["run", example_file, "-o", str(tmp_path / "snap.csv"), "--policy", "prop-sparse"]
    fifo, lrb = [*run[:-1], "fifo"], [*run[:-1], "lrb"]
    for argv in ([], run, [*run, "--budget", "C=3,f=0.7"], fifo, lrb):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False", argv


@pytest.mark.parametrize(
    "options, backend",
    [
        (["--policy", "fifo"], "compiled"),
        (["--policy", "fifo", "--paths"], "compiled"),
        (["--policy", "prop-sparse"], "python"),
        ([], "python"),
    ],
    ids=["fifo", "fifo-paths", "prop-sparse", "noprov"],
)
def test_report_names_backend(example_file, capsys, options, backend):
    if backend == "compiled" and not kernels_buildable():
        backend = "python"
    code, _, err = run_cli(["run", example_file, *options], capsys)
    assert code == 0
    assert f"\nbackend: {backend}\n" in err


def test_config_errors_reported_as_usage(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", example_file, "--policy", "fifo", "--window", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "options",
    [
        ["{missing}"],
        ["{example}", "--policy", "prop-dense", "--selective", "{missing}"],
        ["{example}", "--policy", "prop-dense", "--groups", "{missing}"],
        ["{example}", "--output", "{missing_dir}/snap.csv"],
    ],
    ids=["input", "selective", "groups", "output"],
)
def test_unreadable_path_is_usage_error(example_file, tmp_path, capsys, options):
    names = {
        "example": example_file,
        "missing": str(tmp_path / "nope.csv"),
        "missing_dir": str(tmp_path / "nope"),
    }
    argv = [opt.format(**names) for opt in options]
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv])
    assert exc.value.code == 2
    assert f"cannot open {argv[-1]}" in capsys.readouterr().err


NOT_UTF8 = b"a,b,1,3\n\xff\xfe,c,2,1\n"


def test_non_utf8_input_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    assert f"cannot read {path}: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, content", [("--selective", b"\xff\xfe\n"), ("--groups", b"a,\xff\n")]
)
def test_non_utf8_scope_file_is_usage_error(example_file, tmp_path, capsys, option, content):
    path = tmp_path / "scope.txt"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["run", example_file, "--policy", "prop-sparse", option, str(path)])
    assert exc.value.code == 2
    assert f"cannot read {path}: not valid UTF-8" in capsys.readouterr().err


def test_non_utf8_stdin_is_usage_error(monkeypatch, capsys):
    # a C or POSIX locale gives stdin the surrogateescape error handler
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(["run", "-"])
    assert exc.value.code == 2
    assert "cannot read standard input: not valid UTF-8" in capsys.readouterr().err
