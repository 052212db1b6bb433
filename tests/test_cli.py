import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from logjones import cli, jones, loginv, qgroup, volume
from logjones.qcalc import LaurentPoly
from conftest import with_entry


def run_cli(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = old
    return rc, buf.getvalue()


class TestLoginvCommand:
    def test_kashaev_field(self):
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "3"])
        assert rc == 0
        data = json.loads(out)
        g3 = data["gamma"][3]
        assert abs(mp.mpf(g3["re"]) + 13) < mp.mpf(10) ** -50
        assert abs(mp.mpf(g3["im"])) < mp.mpf(10) ** -50
        assert data["routes_agree"] is True
        assert set(data["gamma_route_deltas"]) == {"1", "2"}

    def test_deterministic(self):
        rc1, out1 = run_cli(["loginv", "--knot", "3_1", "--N", "2"])
        rc2, out2 = run_cli(["loginv", "--knot", "3_1", "--N", "2"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_braid_input(self):
        rc, out = run_cli(["loginv", "--braid", "2: 1 1 1", "--N", "2"])
        assert rc == 0

    @pytest.mark.parametrize("argv, label", [
        (["--knot", "4_1"], "4_1"),
        (["--braid", "4_1"], "4_1"),
        (["--braid", "3: 1 -2 1 -2"], "3: 1 -2 1 -2"),
    ], ids=["knot-4_1", "braid-4_1", "braid-word"])
    def test_knot_label(self, argv, label):
        rc, out = run_cli(["loginv", *argv, "--N", "2"])
        assert rc == 0
        assert json.loads(out)["knot"] == label

    def test_framing_flag(self):
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "3", "--framing", "1"])
        assert rc == 0
        assert json.loads(out)["framing"] == 1

    def test_digits_roundtrip_at_precision(self):
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "3", "--precision", "40"])
        data = json.loads(out)
        # enough digits to round-trip at the configured precision
        assert len(data["alpha"][0]["im"].split(".")[1]) >= 38

    def test_interior_gamma_checked(self, monkeypatch, capsys):
        # an error shared by b_s^+ and b_s^- cancels in beta_s but not in
        # the basis-change gamma_s, which the q-derivative route catches
        exact = cli.loginv.b_pm_via_derivative
        monkeypatch.setattr(cli.loginv, "b_pm_via_derivative",
                            lambda *args, **kwargs: exact(*args, **kwargs) + 1)
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "5"])
        assert rc == 4 and json.loads(out)["routes_agree"] is False
        err = capsys.readouterr().err
        assert "gamma_1" in err and "beta_1" not in err

    @pytest.mark.parametrize("module, name, fault, check", [
        # MDERIV off by 1: the three routes to gamma_s spread
        ("habiro", "ddm_Vm", lambda real: lambda h, s, ctx: real(h, s, ctx) + 1,
         "gamma_1 routes"),
        # the first N rungs of V_{2N} off by 1: gamma_0 against its d/dq form
        ("habiro", "ladder_head",
         lambda real: lambda h, m, n: real(h, m, n) + (1 if m == 2 * n else 0), "gamma_0"),
        # the direct alpha_s shifted: the basis-change alpha_s against it
        ("loginv", "alpha_beta",
         lambda real: lambda *a, **k: ([x + 1 for x in real(*a, **k)[0]], real(*a, **k)[1]),
         "alpha_1"),
    ], ids=["route-spread", "gamma_0", "alpha"])
    def test_failing_check_prints_json_and_exits_4(self, module, name, fault, check,
                                                    monkeypatch, capsys):
        owner = getattr(cli, module)
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "3"])
        assert rc == cli.EXIT_DISAGREEMENT
        data = json.loads(out)
        assert data["routes_agree"] is False and len(data["gamma"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and check in err[0]


class TestJonesCommand:
    def test_palindromic_figure_eight(self):
        rc, out = run_cli(["jones", "--braid", "3: 1 -2 1 -2", "--m", "2"])
        assert rc == 0
        data = json.loads(out)
        terms = {int(e): int(c) for e, c in data["values"]["2"]["terms"]}
        assert terms == {-e: c for e, c in terms.items()}

    def test_range_of_colors(self):
        rc, out = run_cli(["jones", "--knot", "unknot", "--max-m", "3"])
        data = json.loads(out)
        assert set(data["values"]) == {"1", "2", "3"}

    @pytest.mark.parametrize("argv", [["--knot", "4_1", "--max-m", "12"],
                                      ["--braid", "2: 1 1 1 1 1", "--max-m", "8"],
                                      ["--knot", "3_1", "--m", "5"]])
    def test_streamed_text_is_one_dump(self, argv, tmp_path):
        # the entries written color by color make the text of one
        # json.dumps of the whole record (colors 10..12 sort between 1 and
        # 2), on stdout and in --out alike
        braid = cli._resolve_knot(cli.build_parser().parse_args(["jones", *argv]))
        colors = [5] if "--m" in argv else range(1, int(argv[-1]) + 1)
        values = {}
        for m in colors:
            v = jones.colored_jones_zero_framed(braid, m)
            values[str(m)] = {"poly": str(v), "terms": sorted((str(e), str(c))
                                                            for e, c in v.terms.items())}
        want = json.dumps({"knot": braid.name, "strands": braid.strands, "writhe": braid.writhe,
                           "framing": 0, "values": values}, sort_keys=True, indent=1) + "\n"
        rc, out = run_cli(["jones", *argv])
        assert rc == cli.EXIT_OK and out == want
        path = tmp_path / "v.json"
        rc, out = run_cli(["jones", *argv, "--out", str(path)])
        assert rc == cli.EXIT_OK and out == "" and path.read_text() == want

    def test_colors_are_written_as_they_are_traced(self, monkeypatch):
        # the text is written in batches while the colors are traced, so
        # that one color's entry and one batch are held at a time: by the
        # last trace (key "99" of "1".."120" in sorted order) most of it is
        # out
        real = jones.colored_jones_zero_framed
        written = []

        def recording(b, m):
            written.append(sys.stdout.tell())
            return real(b, m)

        monkeypatch.setattr(cli.jones, "colored_jones_zero_framed", recording)
        rc, out = run_cli(["jones", "--knot", "unknot", "--max-m", "120"])
        assert rc == cli.EXIT_OK and len(written) == 120
        assert written == sorted(written) and written[-1] > len(out) // 2


class TestHabiroCommand:
    def test_catalog(self):
        rc, out = run_cli(["habiro", "--knot", "4_1", "--imax", "4"])
        data = json.loads(out)
        assert data["all_ones"] is True
        assert all(data["coeffs"][str(i)]["poly"] == "1" for i in range(5))

    def test_braid_extraction(self):
        rc, out = run_cli(["habiro", "--braid", "2: 1 1 1", "--imax", "3"])
        data = json.loads(out)
        assert data["coeffs"]["0"]["poly"] == "1"
        assert data["coeffs"]["1"]["poly"] == "-q^-4"
        assert data["all_ones"] is False

    def test_braid_all_ones(self):
        # all_ones describes the printed coefficients, also when they come
        # from the traces of a braid word
        rc, out = run_cli(["habiro", "--braid", "3: 1 -2 1 -2"])
        data = json.loads(out)
        assert [c["poly"] for c in data["coeffs"].values()] == ["1"] * 6
        assert data["all_ones"] is True


class TestVolumeScanCommand:
    def test_csv_rows(self):
        rc, out = run_cli(["volume-scan", "--N", "20", "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 20  # header + 19 rows
        assert lines[0].startswith("N,s,alpha")

    def test_json(self):
        rc, out = run_cli(["volume-scan", "--N", "12"])
        data = json.loads(out)
        assert len(data["rows"]) == 11

    def test_out_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        rc, _ = run_cli(["volume-scan", "--N", "8", "--format", "csv", "--out", str(path)])
        assert rc == 0
        assert path.read_text().startswith("N,s,alpha")


class TestQGroupVerifyCommand:
    def test_small_N(self):
        rc, out = run_cli(["qgroup-verify", "--N", "2"])
        assert rc == 0
        rows = json.loads(out)
        assert rows and all(r["pass"] for r in rows)
        checks = {r["check"] for r in rows}
        assert {"relations", "iso_f", "iso_g", "iso_h", "y1_invariance",
                "rmatrix_specialization"} <= checks

    def test_pole_fails(self, monkeypatch):
        # an R-matrix term with a pole at xi is a failing row, not a 0: with
        # the [3] of W_5's E at (2, 3) and of its F at (2, 1) set to 1, the
        # term n = 3 of W5 (x) W5 is e f / [3]! with e f of no zero at xi
        real = jones.build_Wm
        one = LaurentPoly.const(1)

        def broken_W5(m):
            V = real(m)
            return with_entry(with_entry(V, "E", (2, 3), one), "F", (2, 1), one) if m == 5 else V

        monkeypatch.setattr(jones, "build_Wm", broken_W5)
        rc, out = run_cli(["qgroup-verify", "--N", "3"])
        assert rc == 4
        row = next(r for r in json.loads(out) if r["parameters"] == "W5 (x) W5")
        assert row["residual"] == "+inf" and row["pass"] is False

    def test_skip_rmatrix(self):
        rc, out = run_cli(["qgroup-verify", "--N", "3", "--skip-rmatrix"])
        assert rc == 0
        assert not any(r["check"] == "rmatrix_specialization" for r in json.loads(out))


class TestErrors:
    def test_unknown_knot(self):
        rc, _ = run_cli(["loginv", "--knot", "5_2", "--N", "3"])
        assert rc == cli.EXIT_CONFIG

    def test_missing_N(self):
        rc, _ = run_cli(["loginv", "--knot", "4_1"])
        assert rc == cli.EXIT_CONFIG

    def test_missing_knot(self):
        rc, _ = run_cli(["jones", "--m", "2"])
        assert rc == cli.EXIT_CONFIG

    def test_bad_braid(self):
        rc, _ = run_cli(["jones", "--braid", "zzz", "--m", "2"])
        assert rc == cli.EXIT_CONFIG

    def test_low_precision(self):
        rc, _ = run_cli(["loginv", "--knot", "4_1", "--N", "3", "--precision", "10"])
        assert rc == cli.EXIT_CONFIG

    def test_link_closure(self):
        rc, _ = run_cli(["jones", "--braid", "2: 1 1", "--m", "2"])
        assert rc == cli.EXIT_CONFIG

    def test_feasibility(self):
        rc, _ = run_cli(["jones", "--braid", "2: 1 1 1", "--m", "60"])
        assert rc == cli.EXIT_FEASIBILITY

    def test_env_precision(self, monkeypatch):
        rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "3"],
                          env={"LOGJONES_PRECISION": "45"}, monkeypatch=monkeypatch)
        assert rc == 0

    def test_env_precision_invalid(self, monkeypatch):
        rc, _ = run_cli(["loginv", "--knot", "4_1", "--N", "3"],
                        env={"LOGJONES_PRECISION": "soon"}, monkeypatch=monkeypatch)
        assert rc == cli.EXIT_CONFIG


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.mark.parametrize("argv, code", [
    (["loginv", "--N", "1"], cli.EXIT_CONFIG),
    (["qgroup-verify", "--N", "1"], cli.EXIT_CONFIG),
    (["volume-scan", "--N", "1"], cli.EXIT_CONFIG),
    (["loginv", "--knot", "4_1", "--N", "3", "--s", "7"], cli.EXIT_CONFIG),
    (["loginv", "--knot", "4_1", "--N", "3", "--s", "0"], cli.EXIT_CONFIG),
    (["loginv", "--braid", "3: 1 -2 1 -2", "--N", "13"], cli.EXIT_FEASIBILITY),
    (["jones", "--knot", "3_1", "--m", "0"], cli.EXIT_CONFIG),
    (["jones", "--knot", "3_1", "--max-m", "0"], cli.EXIT_CONFIG),
    (["habiro", "--braid", "2: 1 1 1", "--imax", "-1"], cli.EXIT_CONFIG),
    (["jones", "--knot", "3_1", "--format", "csv"], cli.EXIT_CONFIG),
    (["habiro", "--knot", "4_1", "--format", "csv"], cli.EXIT_CONFIG),
    (["loginv", "--knot", "4_1", "--N", "3", "--format", "csv"], cli.EXIT_CONFIG),
    (["qgroup-verify", "--N", "2", "--format", "csv"], cli.EXIT_CONFIG),
    (["habiro", "--braid", "3: 1 -2 1 -2", "--imax", "12"], cli.EXIT_FEASIBILITY),
    (["loginv", "--knot", "4_1", "--N", "3", "--precision", "5000"], cli.EXIT_CONFIG),
    (["jones", "--knot", "4_1", "--max-m", "2",
      "--out", os.path.join(SRC_DIR, "no-such-dir", "x.json")], cli.EXIT_CONFIG),
    (["loginv", "--knot", "4_1", "--N", "3", "--out", SRC_DIR], cli.EXIT_CONFIG),
    (["loginv", "--knot", "3_1", "--braid", "2: 1 1 1", "--N", "2"], cli.EXIT_CONFIG),
    (["qgroup-verify", "--N", "9999999"], cli.EXIT_FEASIBILITY),
    (["volume-scan", "--N", "9999999"], cli.EXIT_FEASIBILITY),
    (["loginv", "--knot", "4_1", "--N", "9999999"], cli.EXIT_FEASIBILITY),
    (["habiro", "--knot", "4_1", "--imax", "9999999"], cli.EXIT_FEASIBILITY),
    (["jones", "--knot", "4_1", "--max-m", "1000000000"], cli.EXIT_FEASIBILITY),
])
def test_bad_input_exit_code_without_traceback(argv, code):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("LOGJONES_PRECISION", None)
    proc = subprocess.run([sys.executable, "-m", "logjones.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stdout == ""


def test_parser_built_once_per_process(monkeypatch):
    # main reuses one parser: calls in a row print and exit as calls that
    # each build their own parser do, and the parser is built once
    monkeypatch.delenv("LOGJONES_PRECISION", raising=False)
    argvs = [["loginv", "--knot", "4_1", "--N", "3"],
             ["habiro", "--knot", "3_1", "--imax", "4"],
             ["loginv", "--knot", "4_1"]]
    separate = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        separate.append(run_cli(argv))
    cli.build_parser.cache_clear()
    together = [run_cli(argv) for argv in argvs]
    assert together == separate
    assert [rc for rc, _ in together] == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_CONFIG]
    assert cli.build_parser.cache_info().misses == 1


def test_knot_help_reads_the_catalog(monkeypatch):
    # a knot added to jones.KNOT_CATALOG shows in the --knot help at once
    monkeypatch.setitem(jones.KNOT_CATALOG, "5_1", jones.BraidWord(2, (1,) * 5, name="5_1"))
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exit_, contextlib.redirect_stdout(io.StringIO()) as buf:
            cli.main(["loginv", "--help"])
    finally:
        cli.build_parser.cache_clear()
    assert exit_.value.code == 0
    assert "catalog name: unknot, 3_1, 4_1, 5_1" in " ".join(buf.getvalue().split())


def test_trefoil_past_the_old_table_limit():
    # V_17 needs a_16, one past the a_0..a_15 the trefoil once stored
    rc, out = run_cli(["loginv", "--knot", "3_1", "--N", "6"])
    assert rc == cli.EXIT_OK
    assert json.loads(out)["routes_agree"] is True


@pytest.mark.parametrize("knot", ["4_1", "3_1"])
def test_loginv_at_the_precision_floor(knot):
    # at the lowest precision, 30 digits, and the largest N, the dual jets
    # lose about 0.14 N digits to cancellation and the judge ctx.tol =
    # 1e-15 still holds
    rc, out = run_cli(["loginv", "--knot", knot, "--N", str(loginv.MAX_N), "--precision", "30"])
    assert rc == cli.EXIT_OK
    assert json.loads(out)["routes_agree"] is True


def test_figure_eight_braid_at_the_top_feasible_color():
    # N = 12 traces V_m up to m = N = 12, a 1728-dim tensor cube under
    # EXACT_DIM_CAP, and the traced a_i give the closed form's vectors
    rc, out = run_cli(["loginv", "--braid", "3: 1 -2 1 -2", "--N", "12"])
    assert rc == cli.EXIT_OK
    braid = json.loads(out)
    assert braid["routes_agree"] is True
    rc, out = run_cli(["loginv", "--knot", "4_1", "--N", "12"])
    assert rc == cli.EXIT_OK
    assert braid | {"knot": "4_1"} == json.loads(out)


@pytest.mark.parametrize("argv", [
    ["habiro", "--braid", "3: 1 -2 1 -2", "--imax", "12"],
    ["loginv", "--braid", "3: 1 -2 1 -2", "--N", "13"],
    ["jones", "--braid", "3: 1 -2 1 -2", "--max-m", "13"],
])
def test_dimension_refused_before_tracing(argv, monkeypatch, capsys):
    # the top color's tensor dimension (13^3 = 2197 > EXACT_DIM_CAP, the
    # color 13 of loginv at N = 13 too) is checked before the first braid
    # trace
    def no_trace(b, m):
        raise AssertionError(f"colored_jones traced color {m} before the refusal")

    monkeypatch.setattr(cli.jones, "colored_jones", no_trace)
    rc, out = run_cli(argv)
    assert rc == cli.EXIT_FEASIBILITY
    assert out == ""
    assert "exceeds the exact-path bound" in capsys.readouterr().err


def test_jones_refused_before_out_is_opened(tmp_path, capsys):
    # check_trace refuses the top color before --out is opened, so a
    # refused run leaves no file behind
    path = tmp_path / "v.json"
    rc, out = run_cli(["jones", "--braid", "3: 1 -2 1 -2", "--max-m", "13", "--out", str(path)])
    assert rc == cli.EXIT_FEASIBILITY and out == ""
    assert "exceeds the exact-path bound" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("skip", [False, True])
def test_qgroup_N_refused_before_any_module(skip, monkeypatch, capsys):
    # an N above qgroup.MAX_VERIFY_N is refused before a module is built,
    # with or without the R-matrix sweep
    def no_build(*args):
        raise AssertionError("a module was built before the refusal")

    monkeypatch.setattr(qgroup, "build_restricted", no_build)
    monkeypatch.setattr(qgroup, "build_modified", no_build)
    monkeypatch.setattr(jones, "build_Wm", no_build)
    argv = ["qgroup-verify", "--N", str(qgroup.MAX_VERIFY_N + 1)] + ["--skip-rmatrix"] * skip
    rc, out = run_cli(argv)
    assert rc == cli.EXIT_FEASIBILITY
    assert out == ""
    assert f"exceeds the bound N <= {qgroup.MAX_VERIFY_N}" in capsys.readouterr().err


class Reached(Exception):
    """Raised by a stand-in worker: the input got past its size bound."""


@pytest.mark.parametrize("argv, top, worker", [
    # asymptotic_scan checks the bound before its first row
    (["volume-scan", "--N", str(volume.MAX_SCAN_N + 1)], ["volume-scan", "--N", "1600"],
     (volume, "gamma_fig8_fast")),
    # the precision floor counts: N^2 digits, 1600^2 * 275, allows
    # N = 419 at 4000 digits
    (["volume-scan", "--N", "420", "--precision", "4000"],
     ["volume-scan", "--N", "419", "--precision", "4000"], (volume, "gamma_fig8_fast")),
    (["loginv", "--knot", "4_1", "--N", str(loginv.MAX_N + 1)],
     ["loginv", "--knot", "4_1", "--N", str(loginv.MAX_N)], (loginv.habiro, "coeffs_for")),
    (["habiro", "--knot", "4_1", "--imax", str(cli.MAX_IMAX + 1)],
     ["habiro", "--knot", "4_1", "--imax", str(cli.MAX_IMAX)], (cli.habiro, "coeffs_for")),
])
def test_size_refused_before_any_work(argv, top, worker, monkeypatch, capsys):
    # above its bound an input is refused before the worker runs; at the
    # bound it reaches the worker
    def no_work(*args):
        raise AssertionError(f"{worker[1]} ran before the refusal")

    monkeypatch.setattr(*worker, no_work)
    rc, out = run_cli(argv)
    assert rc == cli.EXIT_FEASIBILITY
    assert out == ""
    assert "exceeds the bound" in capsys.readouterr().err

    def reached(*args):
        raise Reached

    monkeypatch.setattr(*worker, reached)
    with pytest.raises(Reached):
        run_cli(top)


def test_loginv_traces_only_the_colors_it_reads(monkeypatch):
    # loginv reads a_0..a_{N-1}, so V_m up to m = N: the jets of V_m/[m],
    # V_{2N+s} among them, the first N rungs of the exact V_{2N} of
    # gamma_boundary's cross-check and the sum of ddm_Vm read nothing more
    traced = []
    real = cli.jones.colored_jones

    def recording(b, m):
        traced.append(m)
        return real(b, m)

    monkeypatch.setattr(cli.jones, "colored_jones", recording)
    rc, _ = run_cli(["loginv", "--braid", "2: 1 1 1", "--N", "3"])
    assert rc == cli.EXIT_OK
    assert traced == list(range(1, 4))


def test_loginv_braid_flag_traces_a_catalog_name(monkeypatch):
    # --braid means "trace" in loginv as in habiro, also for a catalog name;
    # the traced coefficients give the closed form's vectors
    traced = []
    real = cli.jones.colored_jones

    def recording(b, m):
        traced.append(m)
        return real(b, m)

    monkeypatch.setattr(cli.jones, "colored_jones", recording)
    rc, braid_out = run_cli(["loginv", "--braid", "3_1", "--N", "2"])
    assert rc == cli.EXIT_OK
    assert traced == list(range(1, 3))
    rc, knot_out = run_cli(["loginv", "--knot", "3_1", "--N", "2"])
    assert rc == cli.EXIT_OK
    assert traced == list(range(1, 3))
    assert json.loads(braid_out) == json.loads(knot_out)


@pytest.mark.parametrize("argv, digits", [
    ([], 42),                      # the scan's own 0.15 N + 35 at N = 50
    (["--precision", "30"], 42),   # a lower floor changes nothing
    (["--precision", "200"], 200),
])
def test_volume_scan_precision_is_a_floor(argv, digits, monkeypatch):
    monkeypatch.delenv("LOGJONES_PRECISION", raising=False)
    seen = []
    real = cli.volume.asymptotic_scan

    def recording(N, ctx=None):
        seen.append(ctx.precision_digits)
        return real(N, ctx)

    monkeypatch.setattr(cli.volume, "asymptotic_scan", recording)
    rc, out = run_cli(["volume-scan", "--N", "50", *argv])
    assert rc == cli.EXIT_OK
    assert seen == [digits]
    assert len(json.loads(out)["rows"]) == 49


# argv fuzzing: each subcommand's own flags, with good and bad values, plus
# a flag of another subcommand now and then; sizes stay small (N <= 4,
# colors <= 4) and braid words have two strands, so every run is quick
SMALL = st.sampled_from(["1", "2", "3", "4", "0", "-1"])
NINE_IN_TEN = st.sampled_from([True] * 9 + [False])
FLAG_VALUES = {
    "--precision": st.sampled_from(["60", "45", "30", "5", "5000", "x"]),
    "--format": st.sampled_from(["json", "json", "csv", "xml"]),
    "--out": st.just("-"),
    "--knot": st.sampled_from(["unknot", "3_1", "4_1", "5_2", ""]),
    "--braid": st.sampled_from(["2: 1 1 1", "2: -1 -1 -1", "2: 1 1", "1:", "3_1", "zzz", ""]),
    "--m": SMALL,
    "--max-m": SMALL,
    "--imax": SMALL,
    "--N": st.sampled_from(["2", "3", "4", "1", "0", "-1", "x"]),
    "--s": SMALL,
    "--framing": st.integers(-2, 2).map(str),
    "--skip-rmatrix": st.none(),
}
COMMON = ("--precision", "--format", "--out")
KNOTTY = COMMON + ("--knot", "--braid")
COMMAND_FLAGS = {
    "jones": KNOTTY + ("--m", "--max-m"),
    "habiro": KNOTTY + ("--imax",),
    "loginv": KNOTTY + ("--N", "--s", "--framing"),
    "qgroup-verify": COMMON + ("--N", "--skip-rmatrix"),
    "volume-scan": COMMON + ("--N",),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    names = COMMAND_FLAGS[command]
    # the knot and --N are there nine times in ten, and a flag of another
    # subcommand one time in ten, so that most draws get past argparse
    flags = [f for f in ("--knot", "--N") if f in names and draw(NINE_IN_TEN)]
    flags += draw(st.lists(st.sampled_from([f for f in names if f not in flags]),
                           max_size=4, unique=True))
    if not draw(NINE_IN_TEN):
        flags.append(draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(flags)))))
    argv = [command]
    for flag in flags:
        value = draw(FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=80, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    # a bad argv is either refused by argparse (SystemExit(2)) or ends in
    # one of the documented exit codes; no other exception escapes main
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("LOGJONES_PRECISION", None)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, err.getvalue())
            return
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_FEASIBILITY, cli.EXIT_DISAGREEMENT), argv
