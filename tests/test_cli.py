import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fairex import cli
from fairex.cli import cli_main
from fairex.vectors import FILE_NAME, generate_vectors_text

GOLDEN = Path(__file__).parent / "golden" / "cembs_vectors.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def keyfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("keys") / "keys.txt"
    rc = cli_main(["keygen", "--profile", "toy", "--seed", "00ab", "--out", str(path)])
    assert rc == 0
    return path


class TestKeygen:
    def test_public_export(self, tmp_path):
        full = tmp_path / "full.txt"
        pub = tmp_path / "pub.txt"
        rc = cli_main([
            "keygen", "--profile", "toy", "--seed", "11", "--out", str(full),
            "--public-out", str(pub),
        ])
        assert rc == 0
        assert "SK=" in full.read_text()
        assert "SK=" not in pub.read_text()

    def test_same_seed_same_file(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        cli_main(["keygen", "--profile", "toy", "--seed", "42", "--out", str(first)])
        cli_main(["keygen", "--profile", "toy", "--seed", "42", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_bad_seed_is_usage_error(self, tmp_path):
        rc = cli_main(["keygen", "--profile", "toy", "--seed", "xyz", "--out", str(tmp_path / "k")])
        assert rc == 2


class TestRun:
    def test_fault_free_is_fair(self, keyfile, tmp_path, capsys):
        rc = cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "01",
            "--fault", "none", "--transcript", str(tmp_path / "t.txt"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fair outcome:        yes" in out
        assert "arbiter involved:    no" in out

    def test_recovery_from_script_file_still_fair(self, keyfile, tmp_path):
        script = tmp_path / "a-silent.txt"
        script.write_text("final-signature silence_party A\n")
        rc = cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "01",
            "--fault", str(script),
        ])
        assert rc == 0

    def test_shipped_script_by_name(self, keyfile):
        rc = cli_main([
            "run", "--protocol", "data-for-sig", "--keys", str(keyfile), "--seed", "02",
            "--fault", "a-garbage-data",
        ])
        assert rc == 0  # neither side acquires anything: still fair

    def test_transcripts_are_replayable(self, keyfile, tmp_path):
        args = [
            "run", "--protocol", "linked", "--keys", str(keyfile), "--seed", "0felix".encode().hex(),
            "--fault", "drop-final",
        ]
        first, second = tmp_path / "one.txt", tmp_path / "two.txt"
        assert cli_main(args + ["--transcript", str(first)]) == 0
        assert cli_main(args + ["--transcript", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_fault_is_usage_error(self, keyfile):
        rc = cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "01",
            "--fault", "no-such-script",
        ])
        assert rc == 2

    def test_missing_keys_file_is_usage_error(self, tmp_path):
        rc = cli_main([
            "run", "--protocol", "common", "--keys", str(tmp_path / "nope.txt"), "--seed", "01",
        ])
        assert rc == 2

    def test_missing_required_flag_is_usage_error(self, keyfile):
        assert cli_main(["run", "--keys", str(keyfile)]) == 2

    def test_non_utf8_keys_file_is_usage_error(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_bytes(b"role=A\n\xff\xfe\n")
        rc = cli_main(["run", "--protocol", "common", "--keys", str(keys), "--seed", "01"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_fault_file_is_usage_error(self, keyfile, tmp_path, capsys):
        script = tmp_path / "fault.txt"
        script.write_bytes(b"final-signature drop\n\xff\xfe\n")
        rc = cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "01",
            "--fault", str(script),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu_child_matches_unpinned_child(self, paper_key_file, tmp_path):
        """Spreading validation over CPUs changes no output of `fairex run`."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def run(transcript: Path, preexec_fn=None):
            proc = subprocess.run(
                [
                    sys.executable, "-c", "from fairex.cli import main; main()",
                    "run", "--protocol", "common", "--keys", str(paper_key_file), "--seed", "05",
                    "--fault", "drop-final", "--transcript", str(transcript),
                ],
                env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
            )
            return proc.returncode, proc.stdout, proc.stderr, transcript.read_bytes()

        pinned = run(
            tmp_path / "pinned.txt",
            lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
        )
        unpinned = run(tmp_path / "unpinned.txt")
        assert pinned == unpinned
        assert unpinned[0] == 0 and "arbiter involved:    yes" in unpinned[1]


class TestPayloadFlags:
    @pytest.mark.parametrize(
        "protocol, flags",
        [
            ("linked", ["--message", "hi"]),
            ("common", ["--data", "ok"]),
            ("data-for-sig", ["--file-a", "a.txt"]),
            ("common", ["--file-b", "b.txt"]),
        ],
    )
    def test_flag_of_another_protocol_is_usage_error(self, keyfile, tmp_path, capsys, protocol, flags):
        transcript = tmp_path / "t.txt"
        assert cli_main([
            "run", "--protocol", protocol, "--keys", str(keyfile), "--seed", "01",
            "--transcript", str(transcript),
        ]) == 0
        capsys.readouterr()
        for command in (
            ["run", "--keys", str(keyfile), "--seed", "01"],
            ["audit", "--keys", str(keyfile), "--transcript", str(transcript)],
        ):
            assert cli_main(command + ["--protocol", protocol] + flags) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {flags[0]} belongs to --protocol ")

    @pytest.mark.parametrize("protocol, flag", [("common", "--message"), ("data-for-sig", "--data")])
    def test_non_utf8_payload_text_is_usage_error(self, keyfile, tmp_path, capsys, protocol, flag):
        # An argv byte that is not UTF-8 (0xff) reaches Python as the surrogate escape U+DCFF.
        transcript = tmp_path / "t.txt"
        assert cli_main([
            "run", "--protocol", protocol, "--keys", str(keyfile), "--seed", "01",
            "--transcript", str(transcript),
        ]) == 0
        capsys.readouterr()
        for command in (
            ["run", "--keys", str(keyfile), "--seed", "01"],
            ["audit", "--keys", str(keyfile), "--transcript", str(transcript)],
        ):
            assert cli_main(command + ["--protocol", protocol, flag, "terms \udcff"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {flag} is not UTF-8 text")


def test_usage_block_names_every_option():
    """Each command's lines of the module docstring name every option its parser takes."""
    _, usage, payload = cli.__doc__.split("\n\n")[:3]
    documented: dict[str, str] = {}
    for line in usage.splitlines():
        if line.split()[0] == "fairex":
            command = line.split()[1]
        documented[command] = documented.get(command, "") + line.replace("[PAYLOAD]", payload)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(documented) == sorted(commands)
    for name, sub in commands.items():
        for action in sub._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                word = rf"(?<![\w-]){re.escape(option)}(?![\w-])"
                assert re.search(word, documented[name]), (name, option)


def test_import_fairex_leaves_the_cli_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fairex; print('fairex.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



class TestAudit:
    def test_round_trip_with_run(self, keyfile, tmp_path):
        transcript = tmp_path / "t.txt"
        cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "03",
            "--fault", "drop-countersig", "--transcript", str(transcript),
        ])
        rc = cli_main(["audit", "--transcript", str(transcript), "--keys", str(keyfile)])
        assert rc == 0

    def test_truncated_transcript_is_an_error(self, keyfile, tmp_path):
        transcript = tmp_path / "t.txt"
        cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "03",
            "--transcript", str(transcript),
        ])
        transcript.write_bytes(transcript.read_bytes()[:-5])
        rc = cli_main(["audit", "--transcript", str(transcript), "--keys", str(keyfile)])
        assert rc == 2

    def test_non_utf8_transcript_is_usage_error(self, keyfile, tmp_path, capsys):
        transcript = tmp_path / "t.txt"
        transcript.write_bytes(b"1\tA\tB\t\xff\xfe\n")
        rc = cli_main(["audit", "--transcript", str(transcript), "--keys", str(keyfile)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_custom_message_flows_through(self, keyfile, tmp_path, capsys):
        transcript = tmp_path / "t.txt"
        cli_main([
            "run", "--protocol", "common", "--keys", str(keyfile), "--seed", "04",
            "--message", "bespoke terms", "--transcript", str(transcript),
        ])
        rc = cli_main([
            "audit", "--transcript", str(transcript), "--keys", str(keyfile),
            "--message", "bespoke terms",
        ])
        assert rc == 0
        assert "A holds valid item:  yes" in capsys.readouterr().out
        # Against the wrong message neither signature verifies: the items
        # are reported invalid (and invalid-invalid still counts as fair).
        cli_main([
            "audit", "--transcript", str(transcript), "--keys", str(keyfile),
            "--message", "different terms",
        ])
        out = capsys.readouterr().out
        assert "A holds valid item:  no" in out
        assert "B holds valid item:  no" in out


class TestVectors:
    def test_cli_writes_the_file(self, tmp_path):
        rc = cli_main(["vectors", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / FILE_NAME).exists()

    def test_output_matches_golden_file(self):
        assert generate_vectors_text() == GOLDEN.read_text()
