"""Tests for the command-line interface."""

import pytest

from repro.cli import load_relation, main, parse_domains
from repro.core.values import is_null
from repro.errors import ReproError


@pytest.fixture
def customers_csv(tmp_path):
    path = tmp_path / "customers.csv"
    path.write_text(
        "name,zip,city\n"
        "Ada,10001,New York\n"
        "Bob,10001,-\n"
        "Cid,60601,Chicago\n"
    )
    return str(path)


@pytest.fixture
def dirty_csv(tmp_path):
    path = tmp_path / "dirty.csv"
    path.write_text(
        "name,zip,city\n"
        "Ada,10001,New York\n"
        "Mal,10001,Newark\n"
    )
    return str(path)


class TestLoader:
    def test_header_and_rows(self, customers_csv):
        r = load_relation(customers_csv)
        assert r.schema.attributes == ("name", "zip", "city")
        assert len(r) == 3

    def test_null_tokens(self, customers_csv):
        r = load_relation(customers_csv)
        assert is_null(r[1]["city"])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,B\n\n1,2\n")
        assert len(load_relation(str(path))) == 1

    def test_arity_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,B\n1\n")
        with pytest.raises(ReproError):
            load_relation(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ReproError):
            load_relation(str(path))

    def test_parse_domains(self):
        domains = parse_domains(["A=a1,a2", "B=x"])
        assert list(domains["A"]) == ["a1", "a2"]
        with pytest.raises(ReproError):
            parse_domains(["A"])


class TestCheck:
    def test_satisfiable(self, customers_csv, capsys):
        code = main(["check", "--data", customers_csv, "--fds", "zip -> city"])
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_violation(self, dirty_csv, capsys):
        code = main(["check", "--data", dirty_csv, "--fds", "zip -> city"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no" in out and "zip -> city" in out

    def test_strong_convention(self, customers_csv, capsys):
        code = main(
            [
                "check", "--data", customers_csv,
                "--fds", "zip -> city", "--convention", "strong",
            ]
        )
        assert code == 1  # the null city blocks strong satisfaction

    def test_missing_file(self, capsys):
        code = main(["check", "--data", "/nonexistent.csv", "--fds", "A -> B"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestChase:
    def test_grounds_null(self, customers_csv, capsys):
        code = main(["chase", "--data", customers_csv, "--fds", "zip -> city"])
        assert code == 0
        out = capsys.readouterr().out
        assert "New York" in out
        assert "grounded a null" in out

    def test_conflict_exit_code(self, dirty_csv, capsys):
        code = main(["chase", "--data", dirty_csv, "--fds", "zip -> city"])
        assert code == 1
        assert "NOT weakly satisfiable" in capsys.readouterr().out


class TestDesignCommands:
    def test_keys(self, capsys):
        code = main(
            ["keys", "--attrs", "A B C", "--fds", "A -> B; B -> C"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "A"

    def test_closure(self, capsys):
        code = main(
            [
                "closure", "--attrs", "A B C",
                "--fds", "A -> B; B -> C", "--of", "A",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "A B C"

    def test_normalize_bcnf(self, capsys):
        code = main(
            ["normalize", "--attrs", "A B C", "--fds", "A -> B; B -> C"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal cover" in out
        assert "B C" in out

    def test_normalize_3nf(self, capsys):
        code = main(
            [
                "normalize", "--attrs", "A B C",
                "--fds", "A -> B; B -> C", "--method", "3nf",
            ]
        )
        assert code == 0
        assert "A B" in capsys.readouterr().out


class TestEngineAndMethodFlags:
    def test_chase_engine_choices(self, customers_csv, capsys):
        for engine in ("auto", "sweep"):
            code = main(
                ["chase", "--data", customers_csv, "--fds", "zip -> city",
                 "--engine", engine]
            )
            assert code == 0
            assert "New York" in capsys.readouterr().out

    def test_chase_engine_rejects_unknown(self, customers_csv, capsys):
        for engine in ("warp", "indexed", "congruence", "vector"):
            with pytest.raises(SystemExit):
                main(["chase", "--data", customers_csv, "--fds", "zip -> city",
                      "--engine", engine])

    def test_check_method_choices(self, customers_csv, capsys):
        for method in ("auto", "sortmerge", "pairwise", "batched"):
            code = main(
                ["check", "--data", customers_csv, "--fds", "zip -> city",
                 "--method", method]
            )
            assert code == 0
            capsys.readouterr()

    def test_check_method_rejects_unknown(self, customers_csv):
        for method in ("psychic", "bucket"):
            with pytest.raises(SystemExit):
                main(["check", "--data", customers_csv, "--fds", "zip -> city",
                      "--method", method])


class TestSessionCommand:
    def test_script_of_ops(self, customers_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text(
            "# exercise the whole vocabulary\n"
            "insert Eve, 10001, -\n"
            "check weak\n"
            "snapshot\n"
            "insert Mal, 10001, Newark\n"
            "rollback\n"
            "update 3 name=Eva\n"
            "delete 0\n"
            "show\n"
        )
        code = main(
            ["session", "--data", customers_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "insert -> row 3" in out
        assert "rollback to snapshot #1" in out
        assert "check weak: satisfied" in out
        assert "Eva" in out
        # sessions keep *raw* semantics: deleting Ada's row removed the
        # only forcer of the zip-10001 city, so the grounding dissolves
        # back into a shared unknown (one NEC class) — unlike
        # GuardedRelation's propagate ratchet
        assert "1 NEC classes" in out

    def test_poisoning_script_exits_one(self, dirty_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("insert Zed, 10001, Boston\n")
        code = main(
            ["session", "--data", dirty_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        assert code == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_empty_start_with_attrs(self, capsys):
        import io
        import sys as _sys

        stdin = _sys.stdin
        _sys.stdin = io.StringIO("insert a, b\ninsert a, -\n")
        try:
            code = main(["session", "--attrs", "A B", "--fds", "A -> B"])
        finally:
            _sys.stdin = stdin
        out = capsys.readouterr().out
        assert code == 0
        assert "insert -> row 1" in out

    def test_stats_flag_and_op(self, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        lines = [f"insert a{i}, b{i}, c{i}" for i in range(8)]
        lines += ["delete 0", "stats"]  # old settled victim: retirement
        script.write_text("\n".join(lines) + "\n")
        code = main(
            ["session", "--attrs", "A B C", "--fds", "A -> B",
             "--script", str(script), "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # once from the script op, once from the --stats flag at exit
        assert out.count("session stats: retire_fast=1") == 2
        assert "trail_replay=0" in out
        assert "level_rebuild=0" in out

    def test_needs_data_or_attrs(self, capsys):
        code = main(["session", "--fds", "A -> B", "--script", "/dev/null"])
        assert code == 2
        assert "needs --data or --attrs" in capsys.readouterr().err

    def test_bad_op_reports_line_and_op_text(self, customers_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("insert Eve, 10001, Boston\nlevitate 3\n")
        code = main(
            ["session", "--data", customers_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "'levitate 3'" in err  # the op text, as written

    def test_bad_operand_reports_line_and_op_text(self, customers_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text(
            "insert Eve, 10001, Boston\n"
            "# a comment line\n"
            "delete nine   # not an index\n"
        )
        code = main(
            ["session", "--data", customers_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "'delete nine'" in err

    def test_replace_and_adopt_ops(self, customers_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("replace 2 Cid, 10001, -\nadopt\n")
        code = main(
            ["session", "--data", customers_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replace row 2" in out
        # Bob's null and the replaced Cid null were both grounded by the
        # chase; adopt committed them
        assert "adopt: 2 substitution(s) committed" in out

    def test_checkpoint_op_is_db_only(self, customers_csv, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("checkpoint\n")
        code = main(
            ["session", "--data", customers_csv, "--fds", "zip -> city",
             "--script", str(script)]
        )
        assert code == 2
        assert "durable-database op" in capsys.readouterr().err


class TestDbCommands:
    FDS = "zip -> city"

    def _init(self, tmp_path, capsys):
        root = str(tmp_path / "db")
        code = main(
            ["db", "init", root, "--name", "people",
             "--attrs", "name zip city", "--fds", self.FDS, "--sync", "flush"]
        )
        assert code == 0
        assert "created relation 'people'" in capsys.readouterr().out
        return root

    def test_init_ingest_recover_stats_roundtrip(
        self, tmp_path, customers_csv, capsys
    ):
        root = self._init(tmp_path, capsys)
        script = tmp_path / "ops.txt"
        script.write_text(
            "insert Eve, 10001, -\n"
            "snapshot\n"
            "insert Mal, 10001, Newark\n"
            "rollback\n"
            "checkpoint\n"
            "update 3 name=Eva\n"
        )
        code = main(
            ["db", "ingest", root, "--name", "people", "--data", customers_csv,
             "--script", str(script), "--stats", "--sync", "flush"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested" in out and "3 row(s) journalled" in out
        assert "checkpoint: 7 op(s) absorbed" in out  # 3 CSV + 4 script ops
        assert "wal_ops=1" in out  # only the post-checkpoint update remains

        # reopening replays the tail over the checkpoint
        code = main(["db", "recover", root, "--sync", "flush"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpoint seq 7 + 1 replayed op(s)" in out
        assert "fixpoint verified: True" in out

        code = main(["db", "stats", root, "--sync", "flush"])
        out = capsys.readouterr().out
        assert code == 0
        assert "people:" in out and "rows=4" in out

    def test_db_check(self, tmp_path, customers_csv, dirty_csv, capsys):
        root = self._init(tmp_path, capsys)
        code = main(
            ["db", "ingest", root, "--name", "people", "--data", customers_csv,
             "--sync", "flush"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["db", "check", root, "--name", "people", "--sync", "flush"])
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_db_ingest_poisoning_exits_one(self, tmp_path, capsys):
        root = self._init(tmp_path, capsys)
        script = tmp_path / "ops.txt"
        script.write_text(
            "insert Ada, 10001, New York\ninsert Mal, 10001, Newark\n"
        )
        code = main(
            ["db", "ingest", root, "--name", "people", "--script", str(script),
             "--sync", "flush"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "INCONSISTENT" in out
        # ...and the poisoned state is durable
        code = main(["db", "recover", root, "--sync", "flush"])
        assert code == 0
        assert "verified: True" in capsys.readouterr().out

    def test_db_ingest_script_error_reports_op_text(self, tmp_path, capsys):
        root = self._init(tmp_path, capsys)
        script = tmp_path / "ops.txt"
        script.write_text("insert Ada, 10001, NYC\nfill 0 city x\n")
        code = main(
            ["db", "ingest", root, "--name", "people", "--script", str(script),
             "--sync", "flush"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "line 2" in captured.err
        assert "'fill 0 city x'" in captured.err
        # the failed op was never journalled: recovery sees one insert
        code = main(["db", "recover", root, "--sync", "flush"])
        assert "1 replayed op(s)" in capsys.readouterr().out

    def test_db_script_discard_releases_a_snapshot(self, tmp_path, capsys):
        """A script's ``discard`` drops the snapshot it left outstanding
        and keeps the rows written since, so a checkpoint is admitted."""
        root = self._init(tmp_path, capsys)
        script = tmp_path / "ops.txt"
        script.write_text("snapshot\ninsert a, x, d\ndiscard\n")
        code = main(
            ["db", "ingest", root, "--name", "people", "--script", str(script),
             "--sync", "flush"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[3] discard: 1 snapshot(s) dropped" in out
        code = main(["db", "checkpoint", root, "--sync", "flush"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpointed 'people': 3 op(s)" in out
        code = main(["db", "stats", root, "--sync", "flush"])
        assert code == 0
        assert "rows=1" in capsys.readouterr().out
        code = main(
            ["lint", "--attrs", "name zip city", "--fds", self.FDS, "--db",
             "--script", str(script)]
        )
        assert code == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_db_unknown_relation(self, tmp_path, capsys):
        root = self._init(tmp_path, capsys)
        code = main(["db", "check", root, "--name", "ghost", "--sync", "flush"])
        assert code == 2
        assert "no relation 'ghost'" in capsys.readouterr().err

    def test_db_checkpoint_command(self, tmp_path, customers_csv, capsys):
        root = self._init(tmp_path, capsys)
        main(
            ["db", "ingest", root, "--name", "people", "--data", customers_csv,
             "--sync", "flush"]
        )
        capsys.readouterr()
        code = main(["db", "checkpoint", root, "--sync", "flush"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpointed 'people': 3 op(s)" in out
