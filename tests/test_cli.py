"""Command-line behavior: exit codes, output contracts, reproducibility."""

import json

import pytest

from carebot.cli import main
from carebot.rules import default_rulebase, serialize_rulebase


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def trace(nine_rules_trace_path):
    return str(nine_rules_trace_path)


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_flag_is_usage(self, capsys, trace):
        code, _, _ = run(capsys, "simulate", "--trace", trace, "--turbo")
        assert code == 1

    def test_malformed_weights_is_usage(self, capsys, trace):
        code, _, _ = run(capsys, "simulate", "--trace", trace,
                         "--weights", "0.5,0.5")
        assert code == 1

    def test_weight_sum_violation_is_config_error(self, capsys, trace):
        code, _, err = run(capsys, "simulate", "--trace", trace,
                           "--weights", "0.5,0.5,0.5")
        assert code == 2
        assert "config error" in err

    def test_threshold_out_of_range_is_config_error(self, capsys, trace):
        code, _, _ = run(capsys, "simulate", "--trace", trace,
                         "--threshold", "1.5")
        assert code == 2

    def test_bad_config_file_is_config_error(self, capsys, trace, tmp_path):
        config = tmp_path / "engine.yaml"
        config.write_text("speed: 11\n", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--trace", trace,
                           "--config", str(config))
        assert code == 2
        assert "unknown config keys" in err

    def test_head_angle_without_normal_term_is_config_error(self, capsys, trace, tmp_path):
        config = tmp_path / "engine.yaml"
        config.write_text(
            "variables:\n"
            "  head_angle:\n"
            "    universe: [0, 90]\n"
            "    terms:\n"
            "      upright: {shape: trapezoid, params: [0, 0, 0, 25]}\n"
            "      low: {shape: triangle, params: [0, 25, 45]}\n"
            "      high: {shape: trapezoid, params: [25, 45, 90, 90]}\n",
            encoding="utf-8")
        rules = tmp_path / "one.fkb"
        rules.write_text("VAR emotion: negative, neutral, positive\n"
                         "RULE 1: IF emotion IS negative THEN no_action, call_nurses, record_data\n",
                         encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--trace", trace, "--config", str(config),
                             "--rules", str(rules), "--deterministic")
        assert code == 2
        assert out == ""
        assert "config error: variable 'head_angle' needs a 'normal' term" in err

    def test_missing_trace_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--trace",
                           str(tmp_path / "nope.jsonl"))
        assert code == 3
        assert "i/o error" in err

    def test_empty_trace_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--trace", str(empty))
        assert code == 3
        assert "empty trace" in err

    def test_malformed_rules_is_data_error(self, capsys, trace, tmp_path):
        rules = tmp_path / "bad.fkb"
        rules.write_text("RULE x: IF THEN\n", encoding="utf-8")
        code, _, err = run(capsys, "simulate", "--trace", trace,
                           "--rules", str(rules))
        assert code == 3
        assert f"{rules}:line 1" in err


class TestSimulate:
    def test_summary_lines(self, capsys, trace):
        code, out, _ = run(capsys, "simulate", "--trace", trace,
                           "--deterministic")
        assert code == 0
        assert "events: 9" in out
        assert "alerts: 5" in out
        assert "expressions: neutral=8 smile=1" in out

    def test_alert_lines(self, capsys, trace):
        _, out, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        alerts = [line for line in out.splitlines() if line.startswith("ALERT ")]
        assert len(alerts) == 5
        assert alerts[0].startswith("ALERT t=0 subject=p01 call_nurses=0.7")
        assert all("subject=p01" in line for line in alerts)

    def test_banner_unless_deterministic(self, capsys, trace):
        _, out, _ = run(capsys, "simulate", "--trace", trace)
        assert out.splitlines()[0].startswith("run started ")
        _, out, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        assert "run started" not in out

    def test_deterministic_runs_identical(self, capsys, trace):
        _, first, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        _, second, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        assert first == second

    def test_parallel_matches_serial(self, capsys, trace):
        _, serial, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        _, parallel, _ = run(capsys, "simulate", "--trace", trace,
                             "--deterministic", "--parallel", "3")
        assert parallel == serial

    def test_explicit_default_weights_change_nothing(self, capsys, trace):
        _, implicit, _ = run(capsys, "simulate", "--trace", trace, "--deterministic")
        _, explicit, _ = run(capsys, "simulate", "--trace", trace,
                             "--deterministic", "--weights", "0.25,0.5,0.25")
        assert explicit == implicit

    def test_high_threshold_silences_alerts(self, capsys, trace):
        _, out, _ = run(capsys, "simulate", "--trace", trace,
                        "--deterministic", "--threshold", "0.9")
        assert "alerts: 0" in out

    def test_log_written(self, capsys, trace, tmp_path):
        log = tmp_path / "decisions.jsonl"
        code, out, _ = run(capsys, "simulate", "--trace", trace,
                           "--deterministic", "--log", str(log))
        assert code == 0
        assert f"log: {log}" in out
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 9
        record = json.loads(lines[0])
        assert record["timestamp"] == 0.0
        assert "call_nurses" in record["actions"]

    def test_log_never_rewinds(self, capsys, trace, tmp_path):
        # replaying the same trace would move timestamps backwards
        log = tmp_path / "decisions.jsonl"
        run(capsys, "simulate", "--trace", trace, "--deterministic",
            "--log", str(log))
        code, _, err = run(capsys, "simulate", "--trace", trace,
                           "--deterministic", "--log", str(log))
        assert code == 3
        assert "non-decreasing" in err
        assert len(log.read_text(encoding="utf-8").splitlines()) == 9

    def test_config_file_drives_engine(self, capsys, trace, tmp_path):
        config = tmp_path / "engine.yaml"
        config.write_text("thresholds:\n  call_nurses: 0.9\n", encoding="utf-8")
        _, out, _ = run(capsys, "simulate", "--trace", trace,
                        "--deterministic", "--config", str(config))
        assert "alerts: 0" in out

    def test_flag_overrides_config(self, capsys, trace, tmp_path):
        config = tmp_path / "engine.yaml"
        config.write_text("thresholds:\n  call_nurses: 0.9\n", encoding="utf-8")
        _, out, _ = run(capsys, "simulate", "--trace", trace, "--deterministic",
                        "--config", str(config), "--threshold", "0.5")
        assert "alerts: 5" in out


class TestCheck:
    def test_canonical_output(self, capsys, default_rules_path):
        code, out, _ = run(capsys, "check", "--rules", str(default_rules_path))
        assert code == 0
        assert out == serialize_rulebase(default_rulebase())

    def test_check_is_idempotent(self, capsys, tmp_path, default_rules_path):
        _, first, _ = run(capsys, "check", "--rules", str(default_rules_path))
        canon = tmp_path / "canon.fkb"
        canon.write_text(first, encoding="utf-8")
        _, second, _ = run(capsys, "check", "--rules", str(canon))
        assert second == first

    def test_diagnostics_positioned(self, capsys, tmp_path):
        rules = tmp_path / "bad.fkb"
        rules.write_text("VAR emotion: negative, neutral, positive\n"
                         "RULE 1: IF emotion IS loud THEN record_data\n",
                         encoding="utf-8")
        code, _, err = run(capsys, "check", "--rules", str(rules))
        assert code == 3
        assert f"{rules}:line 2, col 23: semantic:" in err


class TestEval:
    def test_fixture_rendering(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval", "--fixture",
                           str(fixtures_dir / "table1.tsv"))
        assert code == 0
        assert "Overall accuracy (mean of per-class): 56.1%" in out
        assert "claims 58.3% overall" in out

    def test_trace_scoring(self, capsys, tmp_path):
        path = tmp_path / "labeled.jsonl"
        labels = ("anger", "happiness", "sadness", "surprise", "disgust", "fear")
        lines = [json.dumps({"schema_version": 1})]
        for i, label in enumerate(labels):
            probs = [0.04] * 6
            probs[i] = 0.8
            lines.append(json.dumps({
                "timestamp": float(i), "subject_id": "s",
                "emotion_probs": probs, "sound_norm": 0.5,
                "head_angle_deg": 0.0, "truth_emotion": label,
            }))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--trace", str(path))
        assert code == 0
        assert "Overall accuracy (mean of per-class): 100.0%" in out
        assert "Micro accuracy (per sample, n=6): 100.0%" in out

    def test_trace_and_fixture_together_is_usage(self, capsys, trace,
                                                 fixtures_dir):
        code, _, err = run(capsys, "eval", "--trace", trace,
                           "--fixture", str(fixtures_dir / "table1.tsv"))
        assert code == 1
        assert "exactly one" in err

    def test_neither_source_is_usage(self, capsys):
        code, _, _ = run(capsys, "eval")
        assert code == 1


class TestReport:
    @pytest.fixture()
    def log(self, capsys, trace, tmp_path):
        path = tmp_path / "decisions.jsonl"
        run(capsys, "simulate", "--trace", trace, "--deterministic",
            "--log", str(path))
        return path

    def test_per_subject_summary(self, capsys, log):
        code, out, _ = run(capsys, "report", "--log", str(log))
        assert code == 0
        assert "subject p01: 9 events, 5 alerts" in out
        body = [line for line in out.splitlines() if line.startswith("  t=")]
        assert len(body) == 9
        assert sum(1 for line in body if line.endswith(" ALERT")) == 5
        assert body[0].startswith("  t=0 state=anger valence=-0.9")

    def test_time_window(self, capsys, log):
        _, out, _ = run(capsys, "report", "--log", str(log),
                        "--since", "2000", "--until", "4000")
        body = [line for line in out.splitlines() if line.startswith("  t=")]
        assert len(body) == 3

    def test_unknown_subject(self, capsys, log):
        code, out, err = run(capsys, "report", "--log", str(log),
                             "--subject", "nobody")
        assert code == 0
        assert "no matching records" in err
        assert out == ""

    def test_missing_log_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--log",
                           str(tmp_path / "nope.jsonl"))
        assert code == 3
        assert "i/o error" in err

    def test_corrupt_line_reported_records_kept(self, capsys, log):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("{mangled\n")
        code, out, err = run(capsys, "report", "--log", str(log))
        assert code == 0
        assert "corrupt" in err
        assert "subject p01: 9 events" in out
