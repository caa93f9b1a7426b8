"""numpy and PyYAML load only where they are used.

``import carebot`` and every command without ``--config`` run without
either: numpy serves only the sampled grid of a non-ramp output variable
(``membership_grid`` and that branch of ``defuzzify_wcog``), and PyYAML only
``load_config``. Each check runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

import carebot

SRC = str(Path(carebot.__file__).resolve().parent.parent)
ROOT = Path(SRC).parent


def loaded_after(code: str) -> set[str]:
    """Which of numpy and yaml a fresh interpreter holds after running ``code``."""
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
              "print(' '.join(m for m in ('numpy', 'yaml') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split("\n")[-2].split())


def test_import_and_the_commands_without_config_load_neither(tmp_path):
    log = tmp_path / "d.jsonl"
    assert loaded_after(f"""
import carebot
from carebot.cli import main
assert main(["check", "--rules", "rules/default.fkb"]) == 0
assert main(["simulate", "--trace", "traces/nine_rules.jsonl", "--deterministic",
             "--log", {str(log)!r}]) == 0
assert main(["report", "--log", {str(log)!r}]) == 0
assert main(["eval", "--fixture", "fixtures/table1.tsv"]) == 0
carebot.Engine.default().decide(carebot.load_trace("traces/nine_rules.jsonl").events[0])
""") == set()


def test_a_config_file_loads_yaml_and_still_simulates(tmp_path):
    config = tmp_path / "c.yaml"
    config.write_text("thresholds: {call_nurses: 0.4}\n", encoding="utf-8")
    assert loaded_after(f"""
from carebot.cli import main
assert main(["simulate", "--trace", "traces/nine_rules.jsonl", "--deterministic",
             "--config", {str(config)!r}]) == 0
""") == {"yaml"}


def test_a_sampled_output_variable_loads_numpy():
    assert loaded_after("""
from carebot.fuzzy import LinguisticVariable, trapezoid
from carebot.inference import AggregatedOutput, defuzzify_wcog
var = LinguisticVariable("v", (0.0, 1.0), (("flat", trapezoid(0.0, 0.0, 1.0, 1.0)),))
assert not defuzzify_wcog(AggregatedOutput("v", {"flat": 0.5}, ()), var).degenerate
""") == {"numpy"}
