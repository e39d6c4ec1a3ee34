"""The gate gates itself: `repro lint` must be clean on this repo,
and the CLI exit codes must behave as documented."""

import argparse
import json
import pathlib

from repro.core.cli import build_parser
from repro.lint.baseline import Baseline
from repro.lint.cli import cmd_lint
from repro.lint.core import run_lint

REPO = pathlib.Path(__file__).resolve().parents[1]


def _ns(**overrides) -> argparse.Namespace:
    defaults = dict(list_rules=False, root=str(REPO), rules=None, check=False,
                    json=False, out=None, baseline=None, update_baseline=False,
                    no_cache=False)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestSelfCheck:
    def test_repo_is_lint_clean(self):
        assert run_lint(REPO) == []

    def test_committed_baseline_is_empty(self):
        # the gate starts green with nothing grandfathered: every finding
        # was fixed or inline-suppressed, none baselined away
        base = Baseline.at_root(REPO)
        assert base.exists
        assert base.known_keys() == set()

    def test_wall_channel_files_exist(self):
        # the DET001 allowlist must track reality, not history
        from repro.lint.determinism import WALL_CHANNEL
        for rel in WALL_CHANNEL:
            assert (REPO / rel).is_file(), rel


class TestCliExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert cmd_lint(_ns()) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_mode_exits_zero(self, capsys):
        assert cmd_lint(_ns(check=True)) == 0

    def test_rule_subset_selection(self, capsys):
        assert cmd_lint(_ns(rules="REG", check=True)) == 0

    def test_bad_selector_exits_two(self, capsys):
        assert cmd_lint(_ns(rules="NOPE")) == 2

    def test_bad_root_exits_two(self, tmp_path, capsys):
        assert cmd_lint(_ns(root=str(tmp_path))) == 2

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cmd_lint(_ns(json=True, out=str(out))) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["total"] == 0

    def test_list_rules(self, capsys):
        assert cmd_lint(_ns(list_rules=True)) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "REG004" in out

    def test_violation_fails_plain_run(self, tmp_path, capsys):
        pkg = tmp_path / "src/repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nt = time.time()\n")
        assert cmd_lint(_ns(root=str(tmp_path))) == 1

    def test_check_gates_only_new_findings(self, tmp_path, capsys):
        pkg = tmp_path / "src/repro"
        pkg.mkdir(parents=True)
        bad = pkg / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        # grandfather the existing finding, then --check passes
        assert cmd_lint(_ns(root=str(tmp_path), update_baseline=True)) == 0
        assert cmd_lint(_ns(root=str(tmp_path), check=True)) == 0
        # a new finding still fails the gate
        bad.write_text("import time\nt = time.time()\nu = time.monotonic()\n")
        assert cmd_lint(_ns(root=str(tmp_path), check=True)) == 1

    def test_parser_wires_lint_subcommand(self):
        args = build_parser().parse_args(["lint", "--check", "--rules", "REG"])
        assert args.func is cmd_lint
        assert args.check and args.rules == "REG"
