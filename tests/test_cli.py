import pytest

from qiris.cli import COMPARE_CSV_HEADER, main
from qiris.hashing import md5_hex


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, words100):
    root = tmp_path_factory.mktemp("cli")
    wordlist = root / "words.txt"
    wordlist.write_text("\n".join(words100) + "\n", encoding="ascii")
    table = root / "table.txt"
    code = run_cli(["generate", "--wordlist", str(wordlist), "--out", str(table)])
    assert code == 0
    return {"root": root, "wordlist": wordlist, "table": table}


def test_generate_reports_counts(workspace, tmp_path, capsys):
    out = tmp_path / "t.txt"
    code = run_cli(
        ["generate", "--wordlist", str(workspace["wordlist"]), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "chains=100" in captured.out
    assert any(line.startswith("buckets=") for line in captured.out.splitlines())
    assert out.read_text(encoding="ascii").count("\n") == 101  # header + 100 rows


def test_generate_is_byte_deterministic(workspace, tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for out in (first, second):
        assert run_cli(
            ["generate", "--wordlist", str(workspace["wordlist"]), "--out", str(out)]
        ) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == workspace["table"].read_bytes()


def test_generate_perm_seed_changes_header(workspace, tmp_path):
    out = tmp_path / "seed9.txt"
    code = run_cli(
        [
            "generate",
            "--wordlist",
            str(workspace["wordlist"]),
            "--out",
            str(out),
            "--perm-seed",
            "9",
        ]
    )
    assert code == 0
    assert out.read_text(encoding="ascii").splitlines()[0] == (
        "QIRIS v1 seed=9 chain=R1,R2,R3,R4"
    )


def test_generate_missing_wordlist(tmp_path, capsys):
    code = run_cli(
        ["generate", "--wordlist", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "t.txt")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_empty_wordlist(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="ascii")
    code = run_cli(["generate", "--wordlist", str(empty), "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_generate_names_offending_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("fine\nhas space\n", encoding="ascii")
    code = run_cli(["generate", "--wordlist", str(bad), "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_crack_recovers_word(workspace, capsys):
    code = run_cli(["crack", "--table", str(workspace["table"]), md5_hex("qwerty")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "qwerty"


def test_crack_accepts_uppercase_hash(workspace, capsys):
    code = run_cli(
        ["crack", "--table", str(workspace["table"]), md5_hex("dragon").upper()]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "dragon"


def test_crack_report_flag(workspace, capsys):
    code = run_cli(
        ["crack", "--table", str(workspace["table"]), "--report", md5_hex("shadow")]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "shadow"
    keys = {line.split("=")[0] for line in lines[1:]}
    assert keys == {
        "chains_examined",
        "grover_invocations",
        "grover_iterations_total",
        "classical_fallbacks",
        "bucket_misses",
    }


def test_crack_not_found(workspace, capsys):
    code = run_cli(
        ["crack", "--table", str(workspace["table"]), md5_hex("definitely-absent-98765")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not found" in captured.err


def test_crack_malformed_hash(workspace, capsys):
    code = run_cli(["crack", "--table", str(workspace["table"]), "zzzz"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_crack_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a table\n", encoding="ascii")
    code = run_cli(["crack", "--table", str(bad), md5_hex("qwerty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_crack_rejects_oversized_table_seed(tmp_path, capsys):
    bad = tmp_path / "big-seed.txt"
    bad.write_text(
        "QIRIS v1 seed=18446744073709551660 chain=R1,R2,R3,R4\npassword\txk9\n",
        encoding="ascii",
    )
    code = run_cli(["crack", "--table", str(bad), md5_hex("password")])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err
    assert "does not match" not in err


def test_crack_missing_table(tmp_path):
    code = run_cli(["crack", "--table", str(tmp_path / "nope.txt"), md5_hex("a")])
    assert code == 2


def test_crack_no_quantum(workspace, capsys):
    code = run_cli(
        ["crack", "--table", str(workspace["table"]), "--no-quantum", md5_hex("monkey")]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "monkey"


def test_compare_on_known_hashes(workspace, words100, tmp_path, capsys):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(
        "\n".join(md5_hex(w) for w in words100[:10]) + "\n", encoding="ascii"
    )
    code = run_cli(
        ["compare", "--table", str(workspace["table"]), "--hashes", str(hashes)]
    )
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 0
    assert lines[0] == COMPARE_CSV_HEADER
    assert len(lines) == 11
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[1] == "true"
        assert fields[2] == "true"
        assert fields[3] == "true"
        int(fields[4]), int(fields[5]), int(fields[6])


def test_compare_empty_hashes_file(workspace, tmp_path, capsys):
    hashes = tmp_path / "empty.txt"
    hashes.write_text("", encoding="ascii")
    code = run_cli(
        ["compare", "--table", str(workspace["table"]), "--hashes", str(hashes)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [COMPARE_CSV_HEADER]


def test_compare_malformed_hashes_file(workspace, tmp_path, capsys):
    hashes = tmp_path / "bad.txt"
    hashes.write_text(md5_hex("abc") + "\nnot-a-hash\n", encoding="ascii")
    code = run_cli(
        ["compare", "--table", str(workspace["table"]), "--hashes", str(hashes)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # validation happens before any CSV is emitted
    assert "line 2" in captured.err


def test_usage_errors_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["crack", md5_hex("a")]) == 2  # missing --table
