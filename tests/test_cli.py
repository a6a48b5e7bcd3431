import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pwdyn import cli, stability
from pwdyn.cli import dispatch
from pwdyn.codes import CertificationError
from pwdyn.harness import GeneratorConfig, _corpus, closed_structures
from pwdyn.maps import MapInvariantError, PieceLimitError, parse_map
from pwdyn.orbits import structure, variants
from pwdyn.pinned import PINNED_NAMES, pinned_text
from pwdyn.plotting import emit_plot
from pwdyn.taxonomy import PreconditionError, TaxonomyViolation

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def shift_path(tmp_path):
    path = tmp_path / "shift.map"
    path.write_text(pinned_text("shift"))
    return str(path)


@pytest.fixture
def hat_path(tmp_path):
    path = tmp_path / "hat.map"
    path.write_text(pinned_text("hat"))
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_special_format(capsys, shift_path):
    code, out, _ = run(capsys, "special", shift_path)
    assert code == 0
    assert out == "S = {1/2}\nT = {}\nD = {1/2}\n"


def test_iterate_emit_map_round_trip(capsys, shift_path):
    code, out, _ = run(capsys, "iterate", shift_path, "-n", "2", "--emit-map")
    assert code == 0
    f2 = parse_map(out)
    assert len(f2.pieces) == 3
    code, out2, _ = run(capsys, "iterate", shift_path, "-n", "2", "--emit-map")
    assert out2 == out  # deterministic emission


def test_bound_format(capsys, hat_path):
    code, out, _ = run(capsys, "bound", hat_path, "--horizon", "8")
    assert code == 0
    assert out.splitlines()[0] == "count=1 N_T=1 N_D=0 bound=3 HOLDS"


def test_eval_undefined(capsys, shift_path):
    code, out, _ = run(capsys, "eval", shift_path, "--x", "1/2")
    assert code == 0
    assert "undefined" in out


def test_usage_errors(capsys, shift_path, tmp_path):
    code, _, err = run(capsys, "eval", shift_path, "--x", "1.5")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.map"
    bad.write_text("interval 0 1\npiece 0 1 : slope 0 intercept 1/2\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "zero slope" in err
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2


def test_an_unreadable_map_path_is_an_input_error(capsys, shift_path,
                                                  tmp_path):
    """A directory or a missing file, given as the map or as `compose`'s
    inner map, is reported as `error: ...` with the input-error exit 2,
    not a traceback or the negative-answer exit 1."""
    missing = str(tmp_path / "missing.map")
    for argv in (("validate", str(tmp_path)),
                 ("compose", shift_path, str(tmp_path)),
                 ("validate", missing), ("compose", shift_path, missing)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: [Errno"), \
            argv


def test_orbit_selector(capsys, shift_path):
    code, out, _ = run(capsys, "orbit", shift_path, "--x", "1/2",
                       "--selector", "1")
    assert code == 0
    assert "cycle = (1/2, 3/8) (period 2)" in out
    code, _, err = run(capsys, "orbit", shift_path, "--x", "1/2",
                       "--selector", "11")
    assert code == 2


def test_structure_and_classify(capsys, shift_path):
    code, out, _ = run(capsys, "structure", shift_path, "--x", "1/2")
    assert code == 0
    assert "nodes = {3/8, 1/2, 5/8}" in out
    assert "closed = yes" in out
    code, out, _ = run(capsys, "classify", shift_path, "--x", "1/2")
    assert code == 0 and out.splitlines()[0] == "unstable"


def test_classify_checks_confinement_once(capsys, shift_path, hat_path,
                                         monkeypatch):
    """`classify` builds its point's structure once, in `classify_point`,
    and reads the sides unchecked; a point that is not confined exits 2
    before any output."""
    built = []
    real = stability.structure
    monkeypatch.setattr(stability, "structure",
                        lambda *a: built.append(a) or real(*a))
    code, out, _ = run(capsys, "classify", shift_path, "--x", "1/2")
    assert (code, len(built)) == (0, 1)
    assert out == ("unstable\n  minus: neutral (cycle product 1)\n"
                   "  plus: neutral (cycle product 1)\n")
    code, out, err = run(capsys, "classify", hat_path, "--x", "1/2")
    assert (code, out, err) == (2, "", "error: structure of 1/2 is not "
                                "closed\n")


@pytest.mark.parametrize("command",
                         ["periodic", "taxonomy", "basin", "bound",
                          "theorem5"])
def test_horizon_below_one_is_a_usage_error(capsys, hat_path, command):
    """A `--horizon` below 1 exits 2 before any output, with an argparse
    error naming the option; `theorem5` once printed its forward lines
    first, and every command named the power limit instead."""
    for value in ("0", "-2"):
        code, out, err = run(capsys, command, hat_path, "--horizon", value)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --horizon: must be >= 1, "
                            f"got {value}\n"), err


def test_theorem5_and_regular(capsys, hat_path):
    code, out, _ = run(capsys, "regular", hat_path)
    assert code == 0 and "1/2: yes" in out
    code, out, _ = run(capsys, "theorem5", hat_path)
    assert code == 0
    assert "forward 1/2: orbit (7/12) stable" in out
    assert "reverse (7/12): w=1/2 regular=yes" in out


def test_cap_below_one_is_a_usage_error(capsys, hat_path):
    for command in (("code", hat_path, "--x", "1/3"), ("regular", hat_path),
                    ("structure", hat_path, "--x", "1/3")):
        code, out, err = run(capsys, *command, "--cap", "0")
        assert (code, out, err) == (2, "", "error: cap must be >= 1\n")


def test_theorem5_surfaces_bug_class_errors(capsys, hat_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TaxonomyViolation("planted violation")

    monkeypatch.setattr(cli, "attractor_regular_source", broken)
    code, _, err = run(capsys, "theorem5", hat_path)
    assert code != 0
    assert "planted violation" in err


@pytest.mark.parametrize("error, code, prefix", [
    (TaxonomyViolation, 3, "internal error"),
    (MapInvariantError, 3, "internal error"),
    (CertificationError, 1, "certification failure"),
    (PreconditionError, 2, "error"),
    (PieceLimitError, 2, "error"),
    (stability.CycleBudgetError, 2, "error")])
def test_exit_status_by_error_class(capsys, hat_path, monkeypatch, error,
                                    code, prefix):
    """An implementation bug (a `BugError`) raised after the map loaded
    exits 3 with `internal error:`; a failed certification keeps 1, and a
    precondition (input) error or a spent budget (a `BudgetError`) keeps
    2."""
    def broken(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(cli, "periodic_points", broken)
    assert run(capsys, "periodic", hat_path) == (code, "",
                                                 f"{prefix}: planted\n")


def test_a_map_file_that_breaks_an_invariant_is_an_input_error(
        capsys, hat_path, tmp_path):
    """A MapInvariantError or MapSyntaxError raised while a map file loads,
    the outer map or compose's inner one, exits 2 with `error:`."""
    gap = tmp_path / "gap.map"
    gap.write_text("interval 0 1\npiece 0 1/2 : slope 1 intercept 0\n")
    syntax = tmp_path / "syntax.map"
    syntax.write_text("interval 0 1\npiece 0 1 : slope 1 intercept x\n")
    cover = "error: pieces do not cover the interval\n"
    assert run(capsys, "validate", str(gap)) == (2, "", cover)
    assert run(capsys, "compose", hat_path, str(gap)) == (2, "", cover)
    assert run(capsys, "validate", str(syntax)) == (
        2, "", "error: line 2, column 31: invalid rational 'x'\n")


def test_a_truncated_structure_is_summarized(capsys, tmp_path):
    """A structure cut off at the denominator cap or the node cap prints
    its size, the cap that cut it off and its least and greatest nodes,
    not every node (5 MB on tent at 1/2)."""
    tent = tmp_path / "tent.map"
    tent.write_text(pinned_text("tent"))
    code, out, err = run(capsys, "structure", str(tent), "--x", "1/2")
    assert (code, err) == (0, "")
    assert len(out) < 1000
    assert out == ("nodes: 4095 (bit cap 4096), least 3/8, greatest 3/4\n"
                   "closed = no (truncated)\n")
    code, out, _ = run(capsys, "structure", str(tent), "--x", "1/2",
                       "--cap", "3")
    assert out == ("nodes: 3 (cap 3), least 3/8, greatest 3/4\n"
                   "closed = no (truncated)\n")
    affine = tmp_path / "affine.map"
    affine.write_text("interval 0 1\npiece 0 1 : slope 1/2 intercept 1/3\n")
    code, out, err = run(capsys, "structure", str(affine), "--x", "1/5")
    assert (code, err) == (0, "")
    assert out.startswith("nodes: 4093 (bit cap 4096), least 1/5, greatest ")
    assert out.endswith("\nclosed = no (truncated)\n")


def test_plot_csv_and_svg(capsys, shift_path, hat_path):
    code, out, _ = run(capsys, "plot", shift_path, "--mode", "graph")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "segment,x1,y1,x2,y2"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["piece0", "piece1", "jump0"]
    assert "precision" in out.splitlines()[1]
    code, out, _ = run(capsys, "plot", hat_path, "--mode", "cobweb",
                       "--x0", "5/8", "-n", "20", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    code, _, err = run(capsys, "plot", hat_path, "--mode", "cobweb")
    assert code == 2  # cobweb needs a start


def test_cobweb_past_twenty_jumps(capsys, tmp_path):
    """A cobweb with no selector follows the all-minus selector of
    `_selector_from_bits`, built alone rather than as the first of every
    selector: on a map with 21 jumps, past the 20-bit limit of `variants`,
    it plots where the orbit command already answers.  With at most 20
    jumps it is the first of `variants`."""
    lines = ["interval 0 1"] + [
        f"piece {Fraction(i, 22)} {Fraction(i + 1, 22)} : slope 1/2 "
        f"intercept {Fraction(i % 2, 2)}" for i in range(22)]
    path = tmp_path / "jumps.map"
    path.write_text("\n".join(lines) + "\n")
    f = parse_map(path.read_text())
    assert len(f.special_points().discontinuities) == 21
    assert run(capsys, "orbit", str(path), "--x", "1/3")[0] == 0
    code, out, err = run(capsys, "plot", str(path), "--mode", "cobweb",
                         "--x0", "1/3", "-n", "6")
    assert (code, err) == (0, "")
    assert out == emit_plot(f, "cobweb", cli._selector_from_bits(f, None),
                            x0=Fraction(1, 3), steps=6, fmt="csv")
    assert len(out.splitlines()) == 3 + 2 * 6
    for name in PINNED_NAMES:
        g = parse_map(pinned_text(name))
        assert cli._selector_from_bits(g, None) == variants(g)[0]


def test_suite_json_and_exit(capsys):
    code, out, _ = run(capsys, "suite", "--seed", "3", "--which",
                       "pinned_double_shift", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["properties"]["pinned_double_shift"]["fails"] == 0
    assert run(capsys, "suite", "--which", "no_such_property") == (
        2, "", "error: unknown properties ['no_such_property']\n")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_rejects_a_count_below_one(capsys, count):
    # 0 used to run the default corpus sizes, and -3 to run nothing and
    # report ok
    code, out, err = run(capsys, "suite", "--which", "pinned_double_shift",
                         "--count", count)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--count" in err


def test_compose_command(capsys, shift_path):
    code, out, _ = run(capsys, "compose", shift_path, shift_path,
                       "--emit-map")
    assert code == 0
    composed = parse_map(out)
    assert len(composed.pieces) == 3
    assert [str(b) for b in composed.breakpoints] == ["3/8", "5/8"]


def test_negative_point_after_an_option(capsys, hat_path, tmp_path):
    """`--x -1/3` reaches the map as `--x=-1/3` does; `-n` still works."""
    code, out, err = run(capsys, "code", hat_path, "--x", "-1/3")
    assert (code, out, err) == (2, "", "error: -1/3 outside [0, 1]\n")
    wide = tmp_path / "wide.map"
    wide.write_text("interval -1 1\npiece -1 0 : slope 1/2 intercept 0\n"
                    "piece 0 1 : slope -1 intercept 1/2\n")
    for argv in (("eval", str(wide), "--x{}-1/3"),
                 ("plot", str(wide), "--mode", "cobweb", "--x0{}-1/3",
                  "-n", "3")):
        joined = run(capsys, *(a.format("=") for a in argv))
        split = run(capsys, *(w for a in argv for w in a.format(" ").split()))
        assert joined == split and joined[0] == 0
    assert run(capsys, "eval", str(wide), "--x", "-1/3")[1] == "-1/6\n"


@pytest.mark.parametrize("command, option, bad", [
    (("eval",), "--x", "1/0"), (("orbit",), "--x", "abc"),
    (("structure",), "--x", "1.5"), (("classify",), "--x", "2/0"),
    (("connections",), "--x", "x"), (("code",), "--x", "1/-3"),
    (("plot", "--mode", "cobweb"), "--x0", "1/0")])
def test_a_bad_point_option_names_itself(capsys, hat_path, command, option,
                                         bad):
    """A --x or --x0 value that is not a rational is a usage error (exit
    2) that names the option and the value, not a line and column of a
    map file."""
    code, out, err = run(capsys, command[0], hat_path, *command[1:], option,
                         bad)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {option}: invalid rational "
                        f"value: '{bad}'\n")
    assert "line" not in err


def test_closed_stdout_ends_quietly():
    """A reader gone before the output is written, as with `| head -0`,
    ends the command with the SIGPIPE status 141 and nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pwdyn.cli", "suite", "--seed", "7",
             "--which", "pinned_double_shift"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


# sha256 prefix of each pinned map's CLI transcript in
# `test_cli_golden_digests`
CLI_DIGESTS = {
    "shift": "a250503bc525b980", "tent": "d6c46f4ea1d75fbe",
    "hat": "b0fe9d8069db2929", "contraction": "135e21e201ff8628",
    "semistable": "188eb8e668d355c8", "fourcycle": "29019634aa6a5073",
    "decreasing2": "5c657ca7f31a4675", "twocycle": "bdeb16db2e8687f1",
    "identity": "5f45d17fabc6de91"}


def _golden_points(f):
    """a, b, (a + 2b)/3 and the special points of f whose structures close
    within 200 nodes; the others run to the 10^4-node cap."""
    points = dict.fromkeys((f.a, f.b, (f.a + 2 * f.b) / 3,
                            *f.special_points().points))
    return [p for p in points if structure(f, p, 200).closed]


def test_cli_golden_digests(capsys, tmp_path):
    """The analysis commands on each pinned map, run in-process, keep the
    sha256 of every run's exit status, stdout and stderr: the orbit,
    taxonomy, basin, bound and duality reports, and classify, connections
    and structure at each closing point."""
    got = {}
    for name in PINNED_NAMES:
        path = tmp_path / f"{name}.map"
        path.write_text(pinned_text(name))
        f = parse_map(pinned_text(name))
        runs = [(cmd,) for cmd in ("periodic", "taxonomy", "basin", "bound",
                                   "theorem5")]
        runs += [(cmd, "--x", str(p)) for p in _golden_points(f)
                 for cmd in ("classify", "connections", "structure")]
        runs.append(("structure", "--x", str((f.a + 2 * f.b) / 3), "--cap",
                     "200"))
        digest = hashlib.sha256()
        for cmd, *options in runs:
            code, out, err = run(capsys, cmd, str(path), *options)
            digest.update(f"{cmd} {options}\n{code}\n{out}\0{err}\0"
                          .encode())
        got[name] = digest.hexdigest()[:16]
    assert got == CLI_DIGESTS


# sha256 prefix of each pinned map's transcript in
# `test_cli_transcript_digests`, and of the usage transcript under "usage"
TRANSCRIPT_DIGESTS = {
    "shift": "b576d49021609a91", "tent": "78f148fd810296dd",
    "hat": "82dab0a2e8a9b2cc", "contraction": "7b81a7a84d64d59b",
    "semistable": "510d345b90ba3625", "fourcycle": "21de883a1795cb64",
    "decreasing2": "2acef4ccc4be244f", "twocycle": "a5f6ed28c3ba5aea",
    "identity": "9be4bf1508e4502b", "usage": "d62d908e175b9918"}

COMMANDS = ("validate", "eval", "special", "compose", "iterate", "orbit",
            "structure", "periodic", "classify", "connections", "taxonomy",
            "basin", "bound", "code", "regular", "theorem5", "suite", "plot")


def _transcript(capsys, runs):
    digest = hashlib.sha256()
    for argv in runs:
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\n{code}\n{out}\0{err}\0".encode())
    return digest.hexdigest()[:16]


def test_cli_transcript_digests(capsys, tmp_path, monkeypatch):
    """The commands `test_cli_golden_digests` leaves out, on each pinned
    map: validate, special, eval at (a + 2b)/3 and at each special point,
    plain and one-sided, iterate and compose with and without the map
    text, orbit and code at (a + 2b)/3, regular on both sides and on one,
    and the graph and cobweb plots as csv and svg.  Then a usage error and
    the top-level and every subcommand's help, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # relative map paths keep argv tmp-free
    got = {}
    for name in PINNED_NAMES:
        path = f"{name}.map"
        (tmp_path / path).write_text(pinned_text(name))
        f = parse_map(pinned_text(name))
        mid = str((f.a + 2 * f.b) / 3)
        specials = [str(w) for w in f.special_points().points]
        runs = [("validate",), ("special",), ("eval", "--x", mid)]
        runs += [("eval", "--x", w, *side) for w in specials
                 for side in ((), ("--side", "minus"), ("--side", "plus"))]
        runs += [(cmd, *options, *emit) for cmd, *options in
                 (("iterate", "-n", "3"), ("compose", path))
                 for emit in ((), ("--emit-map",))]
        runs += [("orbit", "--x", mid), ("code", "--x", mid), ("regular",),
                 ("regular", "--side", "plus")]
        runs += [("plot", "--mode", mode, *x0, "--format", fmt)
                 for mode, x0 in (("graph", ()), ("cobweb", ("--x0", mid)))
                 for fmt in ("csv", "svg")]
        got[name] = _transcript(
            capsys, [(cmd, path, *options) for cmd, *options in runs])
    got["usage"] = _transcript(capsys, [
        ("eval", "shift.map"), ("--help",),
        *((cmd, "--help") for cmd in COMMANDS)])
    assert got == TRANSCRIPT_DIGESTS


@pytest.mark.parametrize("pieces, x, want", [
    (("0 11/16 : slope 1/2 intercept 651/16384",
      "11/16 3/4 : slope -1/3 intercept 30113/49152",
      "3/4 1 : slope 2/3 intercept -6751/49152"), "7/8", "(2|0*)\n"),
    (("0 1/4 : slope -3/4 intercept 3961/4096",
      "1/4 7/8 : slope -1 intercept 4217/4096",
      "7/8 1 : slope -3/4 intercept 5073/4096"), "63/64", "(1|0*)\n")])
def test_code_prints_the_canonical_form(capsys, tmp_path, pieces, x, want):
    """A code is printed with its shortest prefix and its least cycle,
    whichever stop test ended the walk: once printed as `(2,0,0,0|0*)`
    and `(1|0,0*)`."""
    path = tmp_path / "code.map"
    path.write_text("interval 0 1\n"
                    + "".join(f"piece {p}\n" for p in pieces))
    assert run(capsys, "code", str(path), "--x", x) == (0, want, "")


def _four_call_connections(f, x):
    """The stdout of `pwdyn connections` as it was: one `find_connection`
    call per level and ordered node pair."""
    st = structure(f, x)
    lines = []
    for y in st.nodes:
        for z in st.nodes:
            for level in (1, 2, 3, 4):
                conn = stability.find_connection(f, st, y, z, level)
                if conn is not None:
                    ks = ",".join(str(k) for k in conn.iterates)
                    lines.append(f"{y} ~{level} {z} (k={ks})\n")
    return "".join(lines) + f"total = {len(lines)}\n"


def test_connections_read_each_pair_once(capsys, tmp_path, monkeypatch):
    """`pwdyn connections` at the root of every closed structure (up to 72
    nodes) of generated maps prints what the four-call loop printed, and
    builds one `_connections` table per ordered node pair."""
    built = []
    real = cli._connections
    monkeypatch.setattr(cli, "_connections",
                        lambda *a: built.append(a[:2]) or real(*a))
    pairs = 0
    for i, f in enumerate(_corpus(GeneratorConfig(seed=7), "connections",
                                  300)):
        path = tmp_path / f"{i}.map"
        path.write_text(f.to_text())
        for st in closed_structures(f):
            want = _four_call_connections(parse_map(f.to_text()), st.root)
            built.clear()
            got = run(capsys, "connections", str(path), f"--x={st.root}")
            assert got == (0, want, ""), (f.to_text(), st.root)
            assert sorted(built) == sorted(
                (y, z) for y in st.nodes for z in st.nodes)
            pairs += len(built)
    assert pairs > 5000, pairs
