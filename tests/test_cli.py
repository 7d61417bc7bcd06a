import errno
import hashlib
import importlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import fail_body_write

import qiris.cli
import qiris.search
from qiris import rainbow_table
from qiris.cli import COMPARE_CSV_HEADER, main
from qiris.hashing import BASE62_ALPHABET, build_permutation, md5_hex, walk_chain
from qiris.rainbow_table import (
    BucketIndex,
    RainbowTable,
    build_buckets,
    load_table,
    save_table,
)
from qiris.search import crack, crack_classical_scan, rebuild_chain

HEADER = b"QIRIS v1 seed=44 chain=R1,R2,R3,R4"


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


def test_generate_failing_midway_keeps_the_old_table(workspace, tmp_path, monkeypatch, capsys):
    out = tmp_path / "t.txt"
    shutil.copyfile(workspace["table"], out)
    old = out.read_bytes()
    words = tmp_path / "words.txt"
    words.write_text("".join(f"w{i}\n" for i in range(20_000)), encoding="ascii")
    fail_body_write(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    code = run_cli(["generate", "--wordlist", str(words), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "error: [Errno 28] No space left on device\n"
    assert out.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["t.txt", "words.txt"]
    assert run_cli(["crack", "--table", str(out), md5_hex("qwerty")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "qwerty"


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
    out = tmp_path / "t.txt"
    code = run_cli(["generate", "--wordlist", str(empty), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: wordlist is empty\n"
    assert not out.exists()


def test_generate_names_offending_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("fine\nhas space\n", encoding="ascii")
    code = run_cli(["generate", "--wordlist", str(bad), "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,fragment",
    [
        (b"fine\r\nalso\r\n", "wordlist line 1: file has CRLF line endings"),
        (b"fi\rne\nalso\r\n", "wordlist line 2: file has CRLF line endings"),
        (b"fine\ncaf\xe9\n", "wordlist line 2: start plaintext is not ASCII"),
    ],
)
def test_generate_rejects_bad_wordlist_bytes(tmp_path, capsys, content, fragment):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    code = run_cli(["generate", "--wordlist", str(bad), "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert fragment in capsys.readouterr().err


def _count_plaintext_checks(monkeypatch):
    """The `where` of every `_check_plaintext` call that qiris.cli and
    qiris.rainbow_table make from now on."""
    calls = []
    check = rainbow_table._check_plaintext

    def counting(text, where):
        calls.append(where)
        check(text, where)

    for module in (qiris.cli, rainbow_table):
        monkeypatch.setattr(module, "_check_plaintext", counting)
    return calls


def test_generate_checks_each_word_once(tmp_path, capsys, monkeypatch):
    # the table's row check is a valid wordlist's only check: no per-word call
    words = tmp_path / "words.txt"
    words.write_text("".join(f"w{i}\n" for i in range(20_000)), encoding="ascii")
    calls = _count_plaintext_checks(monkeypatch)
    code = run_cli(["generate", "--wordlist", str(words), "--out", str(tmp_path / "t.txt")])
    assert code == 0 and capsys.readouterr().out.startswith("chains=20000\n")
    assert calls == []


def test_generate_names_a_bad_word_past_the_first_chunk_by_its_line(
    tmp_path, capsys, monkeypatch
):
    # a blank line after each word sets a word's line number apart from its
    # row, and the bad word lies in the walk's second chunk of rows
    row = rainbow_table._CHUNK + 300
    lines = [f"w{i}\n\n" for i in range(row + 500)]
    lines[row] = "bad word\n\n"
    words, out = tmp_path / "words.txt", tmp_path / "t.txt"
    words.write_text("".join(lines), encoding="ascii")
    calls = _count_plaintext_checks(monkeypatch)
    code = run_cli(["generate", "--wordlist", str(words), "--out", str(out)])
    captured = capsys.readouterr()
    lineno = 2 * row + 1
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: wordlist line {lineno}: start plaintext contains whitespace\n"
    assert not out.exists()
    # the wordlist is read again line by line only up to the bad word
    named = [where for where in calls if where.startswith("wordlist line ")]
    assert len(named) == row + 1 and named[-1] == f"wordlist line {lineno}"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_generate_rejects_out_of_range_perm_seed(workspace, tmp_path, capsys, seed):
    out = tmp_path / "t.txt"
    code = run_cli(
        ["generate", "--wordlist", str(workspace["wordlist"]), "--out", str(out),
         "--perm-seed", seed]
    )
    assert code == 2
    assert "--perm-seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["crack", "compare"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_rejects_out_of_range_rng_seed(workspace, tmp_path, capsys, command, seed):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(md5_hex("qwerty") + "\n", encoding="ascii")
    query = [md5_hex("qwerty")] if command == "crack" else ["--hashes", str(hashes)]
    code = run_cli([command, "--table", str(workspace["table"]), "--rng-seed", seed, *query])
    captured = capsys.readouterr()
    assert code == 2
    assert "--rng-seed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["crack", "compare"])
@pytest.mark.parametrize(
    "flag,value",
    [
        ("--shots", "0"),
        ("--shots", str(2**24 + 1)),
        ("--classical-threshold", "99"),
        ("--classical-threshold", "-1"),
        ("--classical-threshold", "1"),
    ],
)
def test_rejects_out_of_range_search_flags(workspace, tmp_path, capsys, command, flag, value):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(md5_hex("qwerty") + "\n", encoding="ascii")
    query = [md5_hex("qwerty")] if command == "crack" else ["--hashes", str(hashes)]
    code = run_cli([command, "--table", str(workspace["table"]), flag, value, *query])
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["crack", "compare"])
def test_refuses_shots_whose_vote_rejects_a_present_residue(
    workspace, tmp_path, capsys, command
):
    # at seed 7, a 2-shot vote rejects present residues in buckets of 3..16,
    # and a 3-shot vote rejects one in a bucket of 7
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(md5_hex("qwerty") + "\n", encoding="ascii")
    query = [md5_hex("qwerty")] if command == "crack" else ["--hashes", str(hashes)]
    base = [command, "--table", str(workspace["table"])]
    for flags in (["--shots", "2"], ["--shots", "3", "--classical-threshold", "6"]):
        code = run_cli(base + flags + query)
        captured = capsys.readouterr()
        assert code == 2
        assert f"--shots {flags[1]} with --rng-seed 7" in captured.err
        assert captured.out == ""
    found = "qwerty\n" if command == "crack" else ",true,true,true,"
    for flags in (["--shots", "2", "--no-quantum"], ["--shots", "3", "--classical-threshold", "7"]):
        assert run_cli(base + flags + query) == 0
        assert found in capsys.readouterr().out


def test_generate_accepts_largest_perm_seed(workspace, tmp_path):
    out = tmp_path / "t.txt"
    code = run_cli(
        ["generate", "--wordlist", str(workspace["wordlist"]), "--out", str(out),
         "--perm-seed", str(2**64 - 1)]
    )
    assert code == 0
    assert out.read_text(encoding="ascii").startswith(f"QIRIS v1 seed={2**64 - 1} ")


@pytest.mark.parametrize("command", ["generate", "crack", "compare"])
def test_table_open_builds_one_permutation(workspace, tmp_path, monkeypatch, command):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(md5_hex("qwerty") + "\n", encoding="ascii")
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return build_permutation(seed)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "build_permutation", None)
        if name.split(".")[0] == "qiris" and bound is build_permutation:
            monkeypatch.setattr(module, "build_permutation", counting)
    rainbow_table._permutation.cache_clear()
    if command == "generate":
        argv = ["--wordlist", str(workspace["wordlist"]), "--out", str(tmp_path / "t.txt")]
    elif command == "crack":
        argv = ["--table", str(workspace["table"]), md5_hex("qwerty")]
    else:
        argv = ["--table", str(workspace["table"]), "--hashes", str(hashes)]
    assert run_cli([command, *argv]) == 0
    assert seeds == [44]


@pytest.mark.parametrize(
    "body,fragment",
    [
        (b"\npassword\txk9\nhas space\tabc\n", "line 3: start plaintext contains whitespace"),
        (b"\npassword\txk9\ncaf\xe9\tabc\n", "line 3: start plaintext is not ASCII"),
        (b"\r\npassword\txk9\r\n", "line 1: file has CRLF line endings"),
    ],
)
def test_crack_names_the_bad_table_line(tmp_path, capsys, body, fragment):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(HEADER + body)
    code = run_cli(["crack", "--table", str(bad), md5_hex("password")])
    assert code == 2
    assert fragment in capsys.readouterr().err


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


def test_crack_rejects_digest_with_trailing_newline(workspace, capsys):
    code = run_cli(["crack", "--table", str(workspace["table"]), md5_hex("qwerty") + "\n"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not a 32-character hex digest" in captured.err


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


@pytest.mark.parametrize(
    "header",
    [
        "QIRIS v1 seed=" + "9" * 5000,
        "QIRIS v" + "9" * 5000 + " seed=44",
        "QIRIS v1 seed=" + "9" * 2**20,
    ],
    ids=["seed", "version", "megabyte"],
)
def test_crack_names_line_1_for_an_overlong_header_number(tmp_path, capsys, header):
    # a digit run past Python's int conversion limit must not reach int(),
    # and the error echoes only a bounded prefix of the line
    bad = tmp_path / "long-header.txt"
    bad.write_text(header + " chain=R1,R2,R3,R4\npassword\txk9\n", encoding="ascii")
    code = run_cli(["crack", "--table", str(bad), md5_hex("password")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: malformed table header")
    assert len(err) < 300


def test_crack_missing_table(tmp_path):
    code = run_cli(["crack", "--table", str(tmp_path / "nope.txt"), md5_hex("a")])
    assert code == 2


def test_crack_no_quantum(workspace, capsys):
    code = run_cli(
        ["crack", "--table", str(workspace["table"]), "--no-quantum", md5_hex("monkey")]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "monkey"


def test_crack_report_same_under_both_routing_spellings(workspace, capsys):
    # soccer1's bucket takes the Grover path at the default threshold
    outputs = []
    for flags in (["--no-quantum"], ["--classical-threshold", "16"]):
        argv = ["crack", "--report", "--table", str(workspace["table"]), *flags]
        codes = [run_cli([*argv, md5_hex(w)]) for w in ("monkey", "soccer1", "absent")]
        outputs.append((codes, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    codes, out = outputs[0]
    assert codes == [0, 0, 1]
    assert out.count("grover_invocations=0\n") == 3


def test_compare_same_under_both_routing_spellings(workspace, words100, tmp_path, capsys):
    hashes = tmp_path / "hashes.txt"
    queries = words100[:5] + words100[94:] + ["not-in-the-table"]
    hashes.write_text("\n".join(md5_hex(w) for w in queries) + "\n", encoding="ascii")
    outputs = []
    for flags in (["--no-quantum"], ["--classical-threshold", "16"]):
        argv = ["compare", "--table", str(workspace["table"]), "--hashes", str(hashes)]
        assert run_cli([*argv, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(queries) + 1


@pytest.mark.parametrize("command", ["crack", "compare"])
def test_routing_flags_are_exclusive(workspace, tmp_path, capsys, command):
    hashes = tmp_path / "hashes.txt"
    hashes.write_text(md5_hex("qwerty") + "\n", encoding="ascii")
    query = [md5_hex("qwerty")] if command == "crack" else ["--hashes", str(hashes)]
    flags = ["--no-quantum", "--classical-threshold", "16"]
    code = run_cli([command, "--table", str(workspace["table"]), *flags, *query])
    captured = capsys.readouterr()
    assert code == 2
    assert "--classical-threshold" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "body,fragment",
    [
        (b"%s\r\n%s\r\n", "hashes line 1: file has CRLF line endings"),
        (b"%s\rjunk\n%s\r\n", "hashes line 2: file has CRLF line endings"),
        # a lone CR is part of its line, so the bad digest keeps its line number
        (b"%s\n%s\rjunk\n", "hashes line 2: not a 32-character hex digest"),
    ],
)
def test_compare_names_the_bad_hashes_line(workspace, tmp_path, capsys, body, fragment):
    hashes = tmp_path / "bad.txt"
    digest = md5_hex("abc").encode()
    hashes.write_bytes(body % (digest, digest))
    code = run_cli(
        ["compare", "--table", str(workspace["table"]), "--hashes", str(hashes)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert fragment in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["crack", md5_hex("a")], "the following arguments are required: --table"),
        (
            ["crack", "--table", "x", "--shots", "abc", md5_hex("a")],
            "argument --shots: invalid int value: 'abc'",
        ),
        # an integer flag takes an optional "-" and ASCII digits, not all int() reads
        (
            ["crack", "--table", "x", "--shots", " 1_024 ", md5_hex("a")],
            "argument --shots: invalid int value: ' 1_024 '",
        ),
        (
            ["crack", "--table", "x", "--rng-seed", "٧", md5_hex("a")],
            "argument --rng-seed: invalid int value: '٧'",
        ),
        (
            ["generate", "--wordlist", "w", "--out", "o", "--perm-seed", "+44"],
            "argument --perm-seed: invalid int value: '+44'",
        ),
        (
            ["compare", "--table", "x", "--hashes", "h", "--classical-threshold", "١٠_٢٤"],
            "argument --classical-threshold: invalid int value: '١٠_٢٤'",
        ),
        # digits past int()'s length limit; the message echoes a bounded prefix
        (
            ["crack", "--table", "x", "--shots", "9" * 5000, md5_hex("a")],
            "argument --shots: invalid int value: '" + "9" * 100,
        ),
        (
            ["crack", "--table", "x", "--no-quantum", "--classical-threshold", "3", md5_hex("a")],
            "argument --classical-threshold: not allowed with argument --no-quantum",
        ),
        (["compare"], "the following arguments are required: --table, --hashes"),
        (
            ["crack", "--table", "x", md5_hex("a"), "--frobnicate"],
            "unrecognized arguments: --frobnicate",
        ),
    ],
)
def test_usage_errors_exit_2(capsys, argv, message):
    # argparse's errors are main's one error line, with no usage block before it
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["crack", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qiris")


def test_console_script_and_module_run_main(tmp_path):
    # the `qiris` command an install makes, and `python -m qiris.cli`, both reach main
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"qiris": "qiris.cli:main"}
    module, _, name = scripts["qiris"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qiris.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: qiris")


# Runs `qiris` in a child whose address space is capped at 2 GiB, under
# tracemalloc, and prints the traced peak on stdout.
_CAPPED_QIRIS = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qiris.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""


@pytest.mark.parametrize("kind", ["dev-zero", "fifo", "directory", "sparse"])
def test_crack_refuses_a_table_before_reading_it(kind, tmp_path):
    # a table path that is no regular file, or a file too large for the
    # uint32 line offsets, is refused from its stat: neither read into
    # memory nor opened, so a FIFO does not block
    if kind == "dev-zero":
        path, message = "/dev/zero", "Not a regular file: '/dev/zero'"
    elif kind == "fifo":
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
        message = f"Not a regular file: {path!r}"
    elif kind == "directory":
        path, message = str(tmp_path), f"Not a regular file: {str(tmp_path)!r}"
    else:
        # the longest header _HEADER_RE takes, and 4 GiB - 1 body bytes, fit
        longest = f"QIRIS v{'9' * 20} seed={'9' * 20} chain=R1,R2,R3,R4"
        assert rainbow_table._HEADER_RE.match(longest)
        assert rainbow_table._MAX_FILE == len(longest) + 0xFFFFFFFF
        path, message = str(tmp_path / "sparse.txt"), "table file is 4 GiB or more"
        with open(path, "wb"):
            pass
        os.truncate(path, rainbow_table._MAX_FILE + 1)
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_QIRIS, "crack", "--table", path, md5_hex("a")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.endswith(message + "\n")
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300
    assert int(result.stdout) < 2**20


def test_compare_refuses_an_endless_hashes_line(workspace, tmp_path):
    # the hashes file is read a line at a time, so /dev/zero's one endless
    # line is refused once it passes the cap, never held whole
    root = Path(__file__).resolve().parents[1]
    argv = ["compare", "--table", str(workspace["table"]), "--hashes", "/dev/zero"]
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_QIRIS, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: hashes line 1: not a 32-character hex digest\n"
    assert int(result.stdout) < 2**20


def _compare_inputs(workspace, words100, specs, tmp_path):
    """The words100 table plus one false alarm for each miss at each suffix,
    and a hashes file of hits at depths 0-3, then the misses: (table, digests,
    hashes)."""
    digests = [rebuild_chain(w, specs[:depth])[1] for depth in range(4) for w in words100[::9]]
    misses = [md5_hex(f"not in the table {i}") for i in range(8)]
    # rows that end in a miss's candidate end, but whose starts rebuild to
    # another digest
    alarms = [walk_chain(bytes.fromhex(d), specs[depth:]) for d in misses for depth in range(4)]
    opened = load_table(workspace["table"])
    starts = [*opened.starts, *(f"alarm{i}" for i in range(len(alarms)))]
    table = tmp_path / "table.txt"
    save_table(RainbowTable(starts, [*opened.ends, *alarms], opened.perm_seed), table)
    digests += misses
    hashes = tmp_path / "hashes.txt"
    hashes.write_text("".join(f"{d}\n" for d in digests), encoding="ascii")
    return str(table), digests, hashes


def test_compare_rebuilds_as_often_as_crack_alone(workspace, words100, specs, tmp_path,
                                                  monkeypatch, capsys):
    # both paths fetch the same rows from one suffix walk and share each
    # row's verify rebuild, so `compare` rebuilds no more than `crack` does
    table, digests, hashes = _compare_inputs(workspace, words100, specs, tmp_path)
    calls = []

    def counted(*args):
        calls.append(args)
        return rebuild_chain(*args)

    monkeypatch.setattr(qiris.search, "rebuild_chain", counted)
    codes = [run_cli(["crack", "--table", table, d]) for d in digests]
    assert codes.count(0) == len(digests) - 8
    cracked, calls[:] = calls[:], []
    assert run_cli(["compare", "--table", table, "--hashes", str(hashes)]) == 0
    # a rebuild for each hit and for each of the 32 false alarms at least
    assert len(calls) == len(cracked) >= len(digests) - 8 + 32
    capsys.readouterr()


def test_compare_keeps_the_paths_apart_under_a_broken_index(workspace, words100, specs,
                                                            tmp_path, monkeypatch, capsys):
    # an index that finds no row: the scan's verified rows must not become
    # the hybrid's answers, and each row reads as separate calls would
    table, digests, hashes = _compare_inputs(workspace, words100, specs, tmp_path)
    monkeypatch.setattr(BucketIndex, "rows_for", lambda self, h, end: [])
    assert run_cli(["compare", "--table", table, "--hashes", str(hashes)]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    opened = load_table(table)
    index = build_buckets(opened)
    expected = []
    for digest in digests:
        report = crack(digest, opened, index, index.perm, specs)
        classical, scanned = crack_classical_scan(digest, opened, specs)
        found = (report.result is not None, classical is not None, report.result == classical)
        counts = (report.grover_invocations, report.grover_iterations_total, scanned)
        expected.append(",".join([digest, *(str(f).lower() for f in found), *map(str, counts)]))
    assert rows == expected
    hits = len(digests) - 8
    assert all(row.split(",")[1:4] == ["false", "true", "false"] for row in rows[:hits])
    assert all(row.split(",")[1:4] == ["false", "false", "true"] for row in rows[hits:])


# sha256 of the table file `generate` writes from a seeded 20,000-word list,
# of the stdout of 40 `crack --report` calls on it (hits and misses in turn)
# and of one `compare` CSV over the same 40 digests, taken from the
# row-object table; every stage of a table open must keep these bytes
WORDS20K_SHA256 = {
    "table": "3ec94c442c4c8e9653f5c1086fe3eac511bc047d3cc1aaecfff817cf644152f5",
    "crack": "f9b12a9950d40b5e9a7dd84006894357a14b0e8766d8a1daa5662204207e00af",
    "compare": "a5e43884bf21e5172febf3605b61acef47d1c0d8d70ccb1b894a2187c9923243",
}


def _words20k():
    rng = random.Random("qiris:words20k")
    words = {}
    while len(words) < 20_000:
        words.setdefault("".join(rng.choices(BASE62_ALPHABET, k=rng.randint(6, 10))))
    return list(words)


def test_outputs_on_a_20k_table_are_pinned(tmp_path, capsys, specs):
    words = _words20k()
    wordlist, table = tmp_path / "words.txt", tmp_path / "table.txt"
    wordlist.write_text("\n".join(words) + "\n", encoding="ascii")
    assert run_cli(["generate", "--wordlist", str(wordlist), "--out", str(table)]) == 0
    assert capsys.readouterr().out == "chains=20000\nbuckets=4058\n"
    rng = random.Random("qiris:queries20k")
    digests = []
    for _ in range(20):
        word = words[rng.randrange(len(words))]
        digests.append(rebuild_chain(word, specs[: rng.randrange(4)])[1])
        digests.append(f"{rng.getrandbits(128):032x}")
    codes = [run_cli(["crack", "--report", "--table", str(table), d]) for d in digests]
    assert codes == [0, 1] * 20
    cracked = capsys.readouterr().out
    hashes = tmp_path / "hashes.txt"
    hashes.write_text("".join(f"{d}\n" for d in digests), encoding="ascii")
    assert run_cli(["compare", "--table", str(table), "--hashes", str(hashes)]) == 0
    compared = capsys.readouterr().out
    outputs = {"table": table.read_bytes(), "crack": cracked.encode(), "compare": compared.encode()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()} == WORDS20K_SHA256
