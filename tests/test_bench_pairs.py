"""The statistics of bench/pairs.py, on fixed numbers. The script itself runs the
benchmark for minutes, so its pure functions are tested here, and its running with git,
the export and the perfbench child stubbed or replaced by a stand-in."""

import importlib.util
import json
import os
import types
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


class TestQuantile:
    @pytest.mark.parametrize(
        "values, q, expected",
        [
            ([3.0], 0.25, 3.0),
            ([4.0, 1.0, 3.0, 2.0], 0.5, 2.5),
            ([4.0, 1.0, 3.0, 2.0], 0.25, 1.75),
            ([4.0, 1.0, 3.0, 2.0], 0.75, 3.25),
            ([5.0, 1.0, 3.0], 0.5, 3.0),
            ([5.0, 1.0, 3.0], 0.0, 1.0),
            ([5.0, 1.0, 3.0], 1.0, 5.0),
        ],
    )
    def test_linear_interpolation_between_order_statistics(self, values, q, expected):
        assert pairs.quantile(values, q) == expected

    def test_no_values_refused(self):
        with pytest.raises(ValueError):
            pairs.quantile([], 0.5)

    def test_summary(self):
        assert pairs.summary([2.0, 8.0, 4.0, 6.0, 10.0]) == {
            "median": 6.0, "q1": 4.0, "q3": 8.0, "values": [2.0, 8.0, 4.0, 6.0, 10.0],
        }


class TestPairsWon:
    def test_lower_is_better_split_by_order(self):
        base = [10.0, 10.0, 10.0, 10.0, 10.0]
        change = [9.0, 11.0, 9.0, 9.0, 10.0]  # a tie is no win
        base_first = [True, False, True, False, True]
        assert pairs.pairs_won(base, change, base_first) == {
            "pairs": 5,
            "won": 3,
            "base_first": {"pairs": 3, "won": 2},
            "change_first": {"pairs": 2, "won": 1},
        }

    def test_split_by_the_bases_directory(self):
        base = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
        change = [9.0, 9.0, 11.0, 11.0, 9.0, 10.0]
        base_first = [True, False, True, False, True, False]
        base_dir = ["t0", "t0", "t1", "t1", "t0", "t0"]
        won = pairs.pairs_won(base, change, base_first, "lower", base_dir)
        assert won["won"] == 3
        assert won["base_dir"] == {"t0": {"pairs": 4, "won": 3}, "t1": {"pairs": 2, "won": 0}}

    def test_higher_is_better(self):
        won = pairs.pairs_won([1.0, 1.0], [0.98, 1.0], [True, False], "higher")
        assert won["won"] == 0
        assert pairs.pairs_won([0.9, 1.0], [1.0, 1.0], [True, False], "higher")["won"] == 1


class TestCompare:
    def test_failed_runs_leave_their_pair_out(self):
        base = [{"t": 3.0, "ok": 1.0}, {"t": 5.0, "ok": 1.0}, None, {"t": 4.0, "ok": 1.0}]
        change = [{"t": 2.0, "ok": 1.0}, None, {"t": 1.0, "ok": 1.0}, {"t": 4.5, "ok": 0.5}]
        result = pairs.compare(base, change, [True, False, True, False], {"ok": "higher"})
        assert sorted(result) == ["ok", "t"]
        t = result["t"]
        assert (t["better"], t["pairs"], t["won"]) == ("lower", 2, 1)
        assert t["base"]["values"] == [3.0, 4.0] and t["change"]["values"] == [2.0, 4.5]
        assert (t["base_first"], t["change_first"]) == (
            {"pairs": 1, "won": 1}, {"pairs": 1, "won": 0},
        )
        assert (result["ok"]["better"], result["ok"]["won"]) == ("higher", 0)

    def test_the_directory_split_keeps_the_pairs_compared(self):
        base = [{"t": 3.0}, None, {"t": 4.0}, {"t": 4.0}]
        change = [{"t": 2.0}, {"t": 1.0}, {"t": 5.0}, {"t": 3.0}]
        base_dir = ["t0", "t0", "t1", "t1"]
        result = pairs.compare(base, change, [True, False, True, False], {}, base_dir)
        assert result["t"]["base_dir"] == {
            "t0": {"pairs": 1, "won": 1}, "t1": {"pairs": 2, "won": 1},
        }

    def test_no_pair_left_gives_no_metrics(self):
        assert pairs.compare([None], [{"t": 1.0}], [True], {}) == {}


class TestRevisions:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def fake_git(*args):
            calls.append(args)
            return " M src/matterwave/model.py\n" if args[0] == "status" else f"{args[-1]}-sha\n"

        monkeypatch.setattr(pairs, "git", fake_git)
        return calls

    def test_an_exported_change_records_no_dirty_state(self, calls):
        assert pairs.revisions("HEAD~1", "HEAD") == {
            "base": "HEAD~1-sha", "change": "HEAD-sha", "dirty": None,
        }
        assert ("status", "--porcelain") not in calls

    def test_the_working_tree_records_its_dirty_state(self, calls):
        assert pairs.revisions("HEAD", None) == {
            "base": "HEAD-sha", "change": "working tree", "dirty": True,
        }


def _metric(base, change, better="lower"):
    """A set's entry for one metric, as compare() writes it."""
    return {"better": better, **pairs.pairs_won(base, change, [True] * len(base), better),
            "base": pairs.summary(base), "change": pairs.summary(change)}


class TestResolution:
    def test_largest_shift_and_most_pairs_either_side_won(self):
        sets = [
            {"metrics": {  # the change wins 3 of 4 pairs, and its median is half the base's
                "t": _metric([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 3.0]),
                "ok": _metric([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "higher"),
            }},
            {"metrics": {  # the base wins all 5 pairs, and the change's median is 10% above
                "t": _metric([1.0, 1.0, 1.0, 1.0, 1.0], [1.1, 1.2, 1.1, 1.1, 1.05]),
                "ok": _metric([1.0, 1.0], [0.5, 1.0], "higher"),
            }},
        ]
        result = pairs.resolution(sets, ["t", "ok", "absent"])
        assert result == {
            "t": {"largest_median_shift": 0.5, "most_won": 5, "pairs": 5},
            "ok": {"largest_median_shift": 0.25, "most_won": 1, "pairs": 2},
        }

    def test_a_zero_base_median(self):
        zero = {"metrics": {"t": _metric([0.0, 0.0], [0.0, 0.0])}}
        assert pairs.resolution([zero], ["t"])["t"] == {
            "largest_median_shift": 0.0, "most_won": 0, "pairs": 2,
        }
        moved = {"metrics": {"t": _metric([0.0, 0.0], [1.0, 1.0])}}
        assert pairs.resolution([zero, moved], ["t"])["t"] == {
            "largest_median_shift": None, "most_won": 2, "pairs": 2,
        }


class TestPlace:
    @staticmethod
    def trees(tmp_path, names):
        for name in names:
            (tmp_path / name).mkdir()
            (tmp_path / name / "holds").write_text(name)

    def test_two_exported_trees_swap_names(self, tmp_path):
        self.trees(tmp_path, ["t0", "t1"])
        dirs = {"base": "t0", "change": "t1"}
        pairs.place(str(tmp_path), dirs, "t1")
        assert dirs == {"base": "t1", "change": "t0"}
        assert (tmp_path / "t1" / "holds").read_text() == "t0"
        assert (tmp_path / "t0" / "holds").read_text() == "t1"
        pairs.place(str(tmp_path), dirs, "t1")  # already there: nothing moves
        assert (tmp_path / "t1" / "holds").read_text() == "t0"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t0", "t1"]


class TestChangeRevision:
    @staticmethod
    def stub(monkeypatch, status="", stash=""):
        calls = []

        def fake_git(*args):
            calls.append(args)
            return {"status": status, "stash": stash}[args[0]]

        monkeypatch.setattr(pairs, "git", fake_git)
        return calls

    def test_a_named_revision_is_exported_as_it_is(self, monkeypatch):
        calls = self.stub(monkeypatch)
        assert pairs.change_revision("HEAD~2") == "HEAD~2" and calls == []

    def test_the_working_tree_is_its_stash_commit(self, monkeypatch):
        calls = self.stub(monkeypatch, status=" M src/matterwave/model.py\n", stash="abc123\n")
        assert pairs.change_revision(None) == "abc123"
        assert calls == [("status", "--porcelain", "src"), ("stash", "create")]

    def test_a_clean_working_tree_is_head(self, monkeypatch):
        self.stub(monkeypatch)
        assert pairs.change_revision(None) == "HEAD"

    def test_untracked_files_under_src_are_refused(self, monkeypatch):
        self.stub(monkeypatch, status="?? src/matterwave/new.py\n", stash="abc123\n")
        with pytest.raises(SystemExit, match="untracked"):
            pairs.change_revision(None)


_RESULT = '{"correct": true, "metrics": {"setup_s": {"value": 0.1}}}'


class TestRunOnce:
    def test_the_child_writes_no_bytecode_whatever_the_callers_environment(self, monkeypatch):
        seen = {}

        def fake_run(argv, **kwargs):
            seen.update(kwargs)
            return types.SimpleNamespace(returncode=0, stdout='env {"k": 1}\n' + _RESULT + "\n")

        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        monkeypatch.setenv("PAIRS_TEST_MARK", "kept")
        monkeypatch.setattr(pairs.subprocess, "run", fake_run)
        assert pairs.run_once("tree", "cli-small", 7) == ({"setup_s": 0.1}, {"k": 1})
        assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert seen["env"]["PAIRS_TEST_MARK"] == "kept"

    def test_the_tree_holds_no_bytecode_after_a_run(self, tmp_path, monkeypatch):
        # A stand-in for perfbench/run.py that imports a module of the tree's src.
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "probe.py").write_text("X = 1\n")
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import os, sys\n"
            "sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, 'src'))\n"
            "import probe\n"
            f"print({_RESULT!r})\n"
        )
        assert pairs.run_once(str(tmp_path), "cli-small", 7) == ({"setup_s": 0.1}, None)
        assert not list(tmp_path.rglob("__pycache__"))


class TestMain:
    def test_both_sides_are_exported_trees_that_swap_names(self, monkeypatch, tmp_path):
        ran = []

        def fake_export(rev, parent, name):
            os.mkdir(os.path.join(parent, name))
            Path(parent, name, "rev").write_text(rev)

        def fake_run_once(tree, workload, seed):
            ran.append((os.path.basename(tree), Path(tree, "rev").read_text()))
            return {"setup_s": 0.1}, None

        def no_subprocess(*args, **kwargs):
            raise AssertionError(f"unexpected subprocess {args}")

        fake_git = {"rev-parse": "HEAD-sha\n", "status": "", "stash": "stash-sha\n"}
        monkeypatch.setattr(pairs, "git", lambda *args: fake_git[args[0]])
        monkeypatch.setattr(pairs, "export", fake_export)
        monkeypatch.setattr(pairs, "run_once", fake_run_once)
        monkeypatch.setattr(pairs.subprocess, "run", no_subprocess)
        out = tmp_path / "out.json"
        argv = ["--base", "HEAD", "--workload", "cli-small", "--sets", "1", "--pairs", "4"]
        assert pairs.main([*argv, "--out", str(out)]) == 0
        base, change = "HEAD", "stash-sha"
        assert ran == [
            ("t0", base), ("t1", change), ("t1", change), ("t0", base),
            ("t1", base), ("t0", change), ("t0", change), ("t1", base),
        ]
        entry = json.loads(out.read_text())["runs"][0]
        assert entry["sets"][0]["directories"] == {
            "base": ["t0", "t0", "t1", "t1"], "change": ["t1", "t1", "t0", "t0"],
        }
        assert (entry["change"], entry["dirty"]) == ("working tree", False)
