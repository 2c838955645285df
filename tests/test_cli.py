"""Command-line interface: golden outputs, formats, exit codes."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from normsums import cli
from normsums import verify as verify_mod
from normsums.quadfield import SUPPORTED_FIELDS

GOLDENS = Path(__file__).resolve().parent / "goldens"

FIELD_INFO_35 = (
    '{"d":35,"omega_branch":"HalfOnePlusSqrtMinusD","class_number":2,'
    '"norm_form":"a^2+ab+9b^2","classes":['
    '{"class_index":1,"k":1,"s":0,"t":0,"h_scale":"1","condition":"always"},'
    '{"class_index":2,"k":5,"s":2,"t":1,"h_scale":"1/5","condition":"5|(a+3b)"}]}\n'
)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_golden(capsys):
    code, out, _ = run_cli(capsys, "field-info", "-d", "35")
    assert code == 0
    assert out == FIELD_INFO_35


def test_field_info_table_format(capsys):
    code, out, _ = run_cli(capsys, "field-info", "-d", "35", "--format", "table")
    assert code == 0
    assert "omega         (1+sqrt(-35))/2" in out
    assert "class 2       k=5 s=2 t=1 h=1/5 condition: 5|(a+3b)" in out


def test_min_terms_goldens(capsys):
    code, out, _ = run_cli(capsys, "min-terms", "-d", "51", "--class", "2", "-r", "6")
    assert code == 0
    assert out.strip() == '{"outcome":"representable","m":2}'
    code, out, _ = run_cli(capsys, "min-terms", "-d", "5", "--class", "2", "-r", "1")
    assert code == 0
    assert out.strip() == '{"outcome":"unrepresentable"}'


def test_certificate_golden(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "-d", "907", "--class", "2", "-r", "81", "-m", "5"
    )
    assert code == 0
    assert out.strip() == (
        '{"d":907,"class_index":2,"k":13,"r":81,"m":5,'
        '"gammas":[[13,0],[13,0],[13,0],[5,-1],[8,1]],"check":1053}'
    )


def test_certificate_deterministic(capsys):
    args = ("certificate", "-d", "187", "--class", "2", "-r", "105", "-m", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["gammas"] == [[12, -2], [20, -1]]
    assert doc["check"] == 735


def test_certificate_not_found_outcomes(capsys):
    # representable with 2 terms but not with 1
    code, out, _ = run_cli(capsys, "certificate", "-d", "5", "--class", "2", "-r", "4", "-m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"outcome": "not_found", "min_m": 2}
    code, out, _ = run_cli(capsys, "certificate", "-d", "5", "--class", "2", "-r", "1", "-m", "1")
    assert code == 0
    assert json.loads(out) == {"outcome": "unrepresentable"}


def test_min_terms_csv_header_for_both_outcomes(capsys):
    _, out, _ = run_cli(capsys, "min-terms", "-d", "51", "--class", "2", "-r", "6", "--format", "csv")
    assert out == "outcome,m\nrepresentable,2\n"
    _, out, _ = run_cli(capsys, "min-terms", "-d", "5", "--class", "2", "-r", "1", "--format", "csv")
    assert out == "outcome,m\nunrepresentable,\n"


def test_certificate_not_found_csv_and_table(capsys):
    not_found = ("certificate", "-d", "5", "--class", "2", "-r", "4", "-m", "1")
    unrepresentable = ("certificate", "-d", "5", "--class", "2", "-r", "1", "-m", "1")
    _, out, _ = run_cli(capsys, *not_found, "--format", "csv")
    assert out == "outcome,min_m\nnot_found,2\n"
    _, out, _ = run_cli(capsys, *unrepresentable, "--format", "csv")
    assert out == "outcome,min_m\nunrepresentable,\n"
    _, out, _ = run_cli(capsys, *not_found, "--format", "table")
    assert out == "outcome  not_found\nmin_m    2\n"
    _, out, _ = run_cli(capsys, *unrepresentable, "--format", "table")
    assert out == "outcome  unrepresentable\n"


def test_g_csv(capsys):
    _, out, _ = run_cli(capsys, "g", "-d", "907", "--format", "csv")
    assert out == "d,r_max,g,witness_class_index,witness_r,stable\n907,300,5,2,81,True\n"


def test_m_d_csv(capsys):
    _, out, _ = run_cli(capsys, "m-d", "-d", "31", "--format", "csv")
    assert out == "d,m_d\n31,4\n"


SUBCOMMANDS = [
    ("field-info", "-d", "35"),
    ("min-terms", "-d", "51", "--class", "2", "-r", "6"),
    ("min-terms", "-d", "5", "--class", "2", "-r", "1"),
    ("certificate", "-d", "907", "--class", "2", "-r", "81", "-m", "5"),
    ("certificate", "-d", "5", "--class", "2", "-r", "4", "-m", "1"),
    ("certificate", "-d", "5", "--class", "2", "-r", "1", "-m", "1"),
    ("exceptional", "-d", "35", "--class", "2", "--r-max", "20"),
    ("g", "-d", "907"),
    ("m-d", "-d", "31"),
    ("verify", "--class-number", "2"),
    ("class-table",),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("args", SUBCOMMANDS, ids=" ".join)
def test_every_subcommand_prints_the_format_asked_for(capsys, args, fmt):
    # json must parse and csv/table must not, so no command falls back to json
    code, out, _ = run_cli(capsys, *args, "--format", fmt)
    assert code == 0
    if fmt == "json":
        json.loads(out)
    else:
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_exceptional_golden(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "-d", "35", "--class", "2", "--r-max", "20")
    assert code == 0
    assert out.strip() == '{"d":35,"class_index":2,"r_max":20,"exceptional":[1,2,4]}'


def test_exceptional_csv(capsys):
    code, out, _ = run_cli(
        capsys, "exceptional", "-d", "35", "--class", "2", "--r-max", "20", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["r", "1", "2", "4"]


def test_g_golden(capsys):
    code, out, _ = run_cli(capsys, "g", "-d", "907")
    assert code == 0
    assert out.strip() == (
        '{"d":907,"r_max":300,"g":5,"witness":{"class_index":2,"r":81},"stable":true}'
    )


def test_m_d_golden(capsys):
    code, out, _ = run_cli(capsys, "m-d", "-d", "31")
    assert code == 0
    assert out.strip() == '{"d":31,"m_d":4}'


def test_class_table_csv(capsys):
    code, out, _ = run_cli(capsys, "class-table", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,class_index,k,s,t"
    assert len(lines) == 1 + 9 + 2 * 18 + 3 * 16
    assert "35,2,5,2,1" in lines
    assert "907,3,13,-5,1" in lines


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class-number", "3", "--r-max", "300")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches"] == 16 and doc["total"] == 16
    assert doc["all_match"] is True


def test_verify_subcommand_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--class-number", "2", "--r-max", "300",
        "--format", "table",
    )
    assert code == 0
    assert "18/18" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("class_number", ["2", "3"])
def test_verify_output_golden(capsys, class_number, fmt):
    # stdout byte for byte, apart from the timings in the json report
    code, out, _ = run_cli(capsys, "verify", "--class-number", class_number, "--r-max", "300", "--format", fmt)
    assert code == 0
    golden = GOLDENS / f"verify-{class_number}-300.{fmt}"
    assert re.sub(r'"runtime_seconds":[-+.e0-9]+,', "", out) == golden.read_text()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_field_info_and_class_table_goldens(capsys, fmt):
    # every field's conditions, norm form and representative rows, byte for byte
    for d in SUPPORTED_FIELDS:
        assert cli.main(["field-info", "-d", str(d), "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDENS / f"field-info.{fmt}").read_text()
    code, out, _ = run_cli(capsys, "class-table", "--format", fmt)
    assert code == 0
    assert out == (GOLDENS / f"class-table.{fmt}").read_text()


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    # one CPU keeps verify in this process, where the planted row is seen
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setitem(verify_mod._EXPECTED_CLASS2, 10, (2, 2, (3, 7), 4))
    code, out, _ = run_cli(capsys, "verify", "--class-number", "2", "--r-max", "300")
    assert code == 4
    doc = json.loads(out)
    assert doc["all_match"] is False
    assert doc["matches"] == 17


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "field-info", "-d", "4")
    assert code == 2
    assert "NotSquarefree" in err
    code, _, err = run_cli(capsys, "field-info", "-d", "21")
    assert code == 3
    assert "UnsupportedField" in err
    code, _, err = run_cli(capsys, "min-terms", "-d", "5", "--class", "2", "-r", "0")
    assert code == 2
    assert "positive" in err
    code, _, err = run_cli(capsys, "min-terms", "-d", "5", "--class", "2", "-r", "10000000")
    assert code == 2
    assert "Overflow" in err
    code, out, err = run_cli(capsys, "verify", "--class-number", "3", "--r-max", "0")
    assert code == 2 and out == ""
    assert "r_max=0 too small: exception 1 > 0" in err


def test_huge_d_rejected_without_trial_division(capsys):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "field-info", "-d", "100000000000000000000000000001")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert "exceeds" in err


def test_over_budget_exits_2_with_the_estimate(capsys):
    for args in (["min-terms", "-r", "10000000"], ["certificate", "-r", "10000000", "-m", "3"]):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *args, "-d", "1", "--class", "1")
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert "Overflow" in err and "estimated" in err and "budget" in err


def test_one_budget_per_command(capsys):
    # each table here is admitted on its own; together they are not, and the
    # command stops before its first build (and before verify's pool starts)
    for args in (["verify", "--class-number", "2", "--r-max", "100000"], ["g", "-d", "907", "--r-max", "548782"]):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *args)
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert "Overflow" in err and "estimated" in err and "budget" in err


def test_certificate_with_thousands_of_summands(capsys):
    code, out, _ = run_cli(capsys, "certificate", "-d", "1", "--class", "1", "-r", "3000", "-m", "1500")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == len(doc["gammas"]) == 1500 and doc["check"] == 3000


def test_bad_class_index(capsys):
    code, _, err = run_cli(capsys, "min-terms", "-d", "5", "--class", "3", "-r", "2")
    assert code == 2
    assert err != ""


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "normsums.cli", "m-d", "-d", "19"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"d":19,"m_d":3}'
    proc = subprocess.run(
        [sys.executable, "-m", "normsums.cli", "field-info", "-d", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_argparse_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "normsums.cli", "no-such-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# One process reuses one parser across main calls: every call below reads
# its argv as a first call would.

def test_a_default_comes_back_after_an_override(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "-d", "35", "--class", "2", "--r-max", "20")
    assert code == 0 and '"r_max":20' in out
    code, out, _ = run_cli(capsys, "exceptional", "-d", "35", "--class", "2")
    assert code == 0 and '"r_max":300' in out
    code, out, _ = run_cli(capsys, "field-info", "-d", "35", "--format", "table")
    assert code == 0 and not out.startswith("{")
    code, out, _ = run_cli(capsys, "field-info", "-d", "35")
    assert code == 0 and out == FIELD_INFO_35


def test_a_parse_error_leaves_the_next_call_clean(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["min-terms", "-d", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "min-terms", "-d", "51", "--class", "2", "-r", "6")
    assert code == 0 and err == ""
    assert out == '{"outcome":"representable","m":2}\n'


def test_a_library_error_leaves_the_next_call_clean(capsys):
    code, out, err = run_cli(capsys, "min-terms", "-d", "4", "--class", "1", "-r", "1")
    assert code == 2 and out == ""
    assert "NotSquarefree" in err
    code, out, err = run_cli(capsys, "min-terms", "-d", "51", "--class", "2", "-r", "6")
    assert code == 0 and err == ""
    assert out == '{"outcome":"representable","m":2}\n'


def test_help_twice_prints_the_same_text(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: normsums")


def test_main_builds_its_parser_once_per_process():
    # a fresh process, so nothing built earlier in this one counts; one
    # top-level parser and one per subcommand, whatever the number of calls
    script = (
        "import argparse, contextlib, io\n"
        "built = 0\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    global built\n"
        "    built += 1\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from normsums import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['m-d', '-d', '19']), cli.main(['field-info', '-d', '35']),\n"
        "             cli.main(['min-terms', '-d', '51', '--class', '2', '-r', '6'])]\n"
        "print(codes, built)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] 9\n"
