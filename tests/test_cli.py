"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import math
import warnings

import pytest

from minfilt import generate_plan, plan_to_json
from minfilt import cli
from minfilt.cli import main
from minfilt.kernels import _BATCH_TERMS
from minfilt.stream import _BATCH_WINDOWS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_prints_canonical_json(capsys):
    code, out, _ = run(capsys, "plan", "-m", "3")
    assert code == 0
    assert out.endswith("\n") and "\n" not in out[:-1]
    doc = json.loads(out)
    assert doc["m"] == 3
    assert doc["a_post"] == [[1, 1, 1, 0], [0, 1, -1, -1]]


def test_plan_writes_file(tmp_path, capsys):
    target = tmp_path / "plan5.json"
    code, out, _ = run(capsys, "plan", "-m", "5", "-o", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["m"] == 5
    assert len(doc["diag"]) == 7


def test_plan_rejects_bad_tap_count(capsys):
    code, _, err = run(capsys, "plan", "-m", "0")
    assert code == 2
    assert "error:" in err


def test_tap_count_lists_are_checked(capsys):
    for argv, message in ((("table", "-m", "3,x"), "bad tap-count list: '3,x'"),
                          (("verify", "-m", ","), "empty tap-count list")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_verify_published_sizes(capsys):
    code, out, _ = run(capsys, "verify", "-m", "3,5,7", "--trials", "25", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines[:3]:
        assert "exact: PASS" in line and "float: PASS" in line
        # The float half rounds, so its error is measured, not 0.
        assert 0 < float(line.split("max_rel_err=")[1].split()[0]) <= 1e-12
    assert lines[-1] == "verify: PASS"


def test_verify_output_is_deterministic(capsys):
    a = run(capsys, "verify", "-m", "3,5", "--trials", "10", "--seed", "7")
    b = run(capsys, "verify", "-m", "3,5", "--trials", "10", "--seed", "7")
    assert a == b


def test_verify_rejects_bad_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "error:" in err


def test_verify_plan_file(tmp_path, capsys):
    target = tmp_path / "p.json"
    assert run(capsys, "plan", "-m", "7", "-o", str(target))[0] == 0
    code, out, _ = run(capsys, "verify", "--plan-file", str(target), "--trials", "10")
    assert code == 0
    assert "plan-file m=7" in out


def test_verify_flags_identity_breaking_plan(tmp_path, capsys):
    # A sign flip passes the structural checks but breaks the arithmetic.
    target = tmp_path / "p.json"
    run(capsys, "plan", "-m", "3", "-o", str(target))
    doc = json.loads(target.read_text())
    doc["a_pre"][0][0] = -1
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--plan-file", str(target), "--trials", "5")
    assert code == 1
    assert "INVALID" in out and "identity" in out
    assert out.strip().splitlines()[-1] == "verify: FAIL"


def test_verify_flags_nonternary_plan(tmp_path, capsys):
    # An entry of 2 in the first a_pre row, then in the first diagonal's
    # coeffs, then the first a_pre row zeroed, as the CI step's sed edits
    # make them.  The zeroed row loads as an empty row, which the row rule
    # rejects before the identity is checked.
    target = tmp_path / "p.json"
    run(capsys, "plan", "-m", "3", "-o", str(target))
    text = target.read_text()
    for old, new, fault in (('"a_pre":[[1,', '"a_pre":[[2,', "ternary"),
                            ('"coeffs":[1,', '"coeffs":[2,', "ternary"),
                            ('"a_pre":[[1,0,-1,0]', '"a_pre":[[0,0,0,0]', "a_pre row 0 is empty")):
        assert old in text
        target.write_text(text.replace(old, new, 1))
        code, out, _ = run(capsys, "verify", "--plan-file", str(target), "--trials", "5")
        assert code == 1
        assert fault in out and out.strip().splitlines()[-1] == "verify: FAIL"


def test_verify_passes_a_plan_whose_blocks_misname_its_rows(tmp_path, capsys):
    # The CI step's sed edit renames the m = 4 plan's PASS1@3 block to PAIR2@3
    # and leaves the rows untouched.  verify proves and runs the rows, which
    # are still exact; the blocks matter only to count_proposed.
    target = tmp_path / "p.json"
    run(capsys, "plan", "-m", "4", "-o", str(target))
    text = target.read_text()
    assert text.count('"kind":"pass1"') == 1
    target.write_text(text.replace('"kind":"pass1"', '"kind":"pair2"'))
    code, out, _ = run(capsys, "verify", "--plan-file", str(target), "--trials", "5")
    assert code == 0
    assert "exact: PASS" in out and out.strip().splitlines()[-1] == "verify: PASS"


def test_verify_runs_the_shipped_executor(monkeypatch, capsys):
    # A valid plan with a faulty fir_filter must fail in both modes: one
    # wrong output is one failing window.  The float bound scales with the
    # normal draws, so +1 is far past it.
    shipped = cli.fir_filter

    def off_by_one(kernel, signal, counter=None):
        out = shipped(kernel, signal, counter)
        out[0] += 1
        return out

    monkeypatch.setattr(cli, "fir_filter", off_by_one)
    code, out, _ = run(capsys, "verify", "-m", "3", "--trials", "25")
    assert code == 1
    lines = out.strip().splitlines()
    assert "exact: FAIL (1 identity violations)" in lines[0]
    assert "float: FAIL (1 identity violations)" in lines[0]
    assert lines[-1] == "verify: FAIL"


def test_verify_rejects_malformed_plan_file(tmp_path, capsys):
    # Numbers that overflow while parsing (an infinite m, an a_pre entry or
    # a coefficient outside int8) or that are not integers (an a_pre entry of
    # 1.5, which would otherwise load as 1 and pass) are a malformed document
    # too, not a verification result.
    doc = json.loads(plan_to_json(generate_plan(3)))
    doc["a_pre"][0][0] = 300
    coeff = json.loads(plan_to_json(generate_plan(3)))
    coeff["diag"][0]["coeffs"][0] = 300
    fractional = json.loads(plan_to_json(generate_plan(3)))
    fractional["a_pre"][0][0] = 1.5
    target = tmp_path / "p.json"
    for text in ("not json", '{"m": 1e400}', json.dumps(doc), json.dumps(coeff), json.dumps(fractional)):
        target.write_text(text)
        code, _, err = run(capsys, "verify", "--plan-file", str(target))
        assert code == 2
        assert "malformed" in err


def test_filter_modes_agree(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("# six samples\n1\n2\n3\n\n4\n5\n6\n")
    taps.write_text("1\n1\n1\n")
    code, out, _ = run(capsys, "filter", str(sig), str(taps))
    assert code == 0
    assert out == "6.0\n9.0\n12.0\n15.0\n"
    code, naive_out, _ = run(capsys, "filter", str(sig), str(taps), "--mode", "naive")
    assert code == 0 and naive_out == out


def filter_both_modes(tmp_path, capsys, signal, taps):
    # `minfilt filter` in each --mode on the given values, written to files
    # in tmp_path; no warning may escape.  Returns the two outputs' lines.
    sig, tap = tmp_path / "signal.txt", tmp_path / "taps.txt"
    sig.write_text("".join(f"{v}\n" for v in signal))
    tap.write_text("".join(f"{v}\n" for v in taps))
    lines = []
    for mode in ("naive", "minimal"):
        result = tmp_path / f"{mode}.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "filter", str(sig), str(tap), "--mode", mode, "-o", str(result))
        assert (code, out, err) == (0, "", "")
        lines.append(result.read_text().splitlines())
    return lines


@pytest.mark.parametrize("m, n, tap_mod, sample_mod", [(200, 600, 19, 23), (11, 2000, 9, 13)])
def test_filter_modes_agree_on_both_executor_forms(tmp_path, capsys, m, n, tap_mod, sample_mod):
    # Small integers, so every float operation is exact and the two modes
    # print the same text.  200 taps and 600 samples are 201 windows, below
    # _BATCH_WINDOWS, the batched stages; 11 taps and 2000 samples are 995
    # windows, the product loop.
    windows = (n - m + 2) // 2
    assert (windows < _BATCH_WINDOWS) == (m == 200)
    taps = [(i * 7919) % tap_mod - tap_mod // 2 for i in range(1, m + 1)]
    signal = [(i * 104729) % sample_mod - sample_mod // 2 for i in range(1, n + 1)]
    naive, minimal = filter_both_modes(tmp_path, capsys, signal, taps)
    assert len(minimal) == n - m + 1
    assert minimal == naive


@pytest.mark.parametrize("m, n", [(200, 263), (11, 21)])
def test_filter_huge_taps_on_both_diagonal_forms(tmp_path, capsys, m, n):
    # Taps of +-1e308: some halved diagonal sum overflows, so the float tail
    # of precompute_diagonal redoes it on halved taps.  200 taps are P = 267
    # terms, at least _BATCH_TERMS, the runs form; 11 taps are P = 15, below
    # it, the loop form.
    plan = generate_plan(m)
    assert (plan.p >= _BATCH_TERMS) == (m == 200)
    taps = [-1e308 if (i * 7919) % 5 < 2 else 1e308 for i in range(1, m + 1)]
    assert any(t.halved and math.isinf(sum(c * taps[i] for i, c in t.row)) for t in plan.diag)
    signal = [(i * 104729) % 7 - 3 for i in range(1, n + 1)]
    naive, minimal = filter_both_modes(tmp_path, capsys, signal, taps)
    assert len(minimal) == n - m + 1
    assert minimal == naive


def test_filter_odd_output_count(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("1\n1\n1\n1\n1\n")
    taps.write_text("1\n2\n3\n")
    code, out, _ = run(capsys, "filter", str(sig), str(taps))
    assert code == 0
    assert out == "6.0\n6.0\n6.0\n"


def test_filter_writes_output_file(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    result = tmp_path / "y.txt"
    sig.write_text("1\n2\n3\n4\n")
    taps.write_text("1\n1\n1\n")
    code, out, _ = run(capsys, "filter", str(sig), str(taps), "-o", str(result))
    assert code == 0 and out == ""
    assert result.read_text() == "6.0\n9.0\n"


def test_filter_checks_tap_count(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("1\n2\n3\n4\n")
    taps.write_text("1\n1\n1\n")
    assert run(capsys, "filter", str(sig), str(taps), "-m", "3")[0] == 0
    code, _, err = run(capsys, "filter", str(sig), str(taps), "-m", "4")
    assert code == 2
    assert "error:" in err


def test_filter_rejects_short_signal(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("1\n2\n")
    taps.write_text("1\n1\n1\n")
    code, _, err = run(capsys, "filter", str(sig), str(taps))
    assert code == 2
    assert "error:" in err


def test_filter_reports_bad_line(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("1\n2\n3\n")
    taps.write_text("1\nabc\n1\n")
    code, _, err = run(capsys, "filter", str(sig), str(taps))
    assert code == 2
    assert "not a number" in err and ":2:" in err


def test_filter_rejects_tap_file_without_taps(tmp_path, capsys):
    sig = tmp_path / "x.txt"
    taps = tmp_path / "w.txt"
    sig.write_text("1\n2\n3\n")
    taps.write_text("# no taps yet\n\n")
    code, out, err = run(capsys, "filter", str(sig), str(taps))
    assert code == 2 and out == ""
    assert err == f"error: no taps in {taps}\n"


def test_filter_missing_file(capsys):
    code, _, err = run(capsys, "filter", "no_such_signal.txt", "no_such_taps.txt")
    assert code == 2
    assert "error:" in err


def test_table_derived_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "M\tnaive_mult\tnaive_adders(M-input)\tprop_mult"
        "\tadders_2in\tadders_3in\tadders_4in\tadders_5in\tsavings_pct"
    )
    assert lines[1] == "3\t6\t2\t4\t4\t2\t0\t0\t33.3"
    assert lines[2] == "5\t10\t2\t7\t6\t0\t0\t2\t30.0"
    assert lines[3] == "7\t14\t2\t10\t8\t6\t0\t0\t28.6"
    assert lines[4] == "9\t18\t2\t12\t12\t8\t0\t0\t33.3"
    assert lines[5] == "11\t22\t2\t15\t16\t6\t2\t0\t31.8"


def test_table_reports_published_block(capsys):
    _, out, _ = run(capsys, "table")
    assert "# published values (as printed)" in out
    assert "2*" in out and "-*" in out


def test_table_custom_sizes(capsys):
    code, out, _ = run(capsys, "table", "-m", "4")
    assert code == 0
    assert out.splitlines()[1] == "4\t8\t2\t6\t6\t2\t0\t0\t25.0"


def test_table_is_deterministic(capsys):
    assert run(capsys, "table") == run(capsys, "table")
