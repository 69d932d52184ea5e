"""The local workflow runner reads the workflow as YAML does, and stops a
step that runs past its time limit."""

import re
import time

import pytest

import ci_local


def test_the_steps_are_the_ones_yaml_reads():
    yaml = pytest.importorskip("yaml")
    text = ci_local.WORKFLOW.read_text()
    want = [(step.get("name"), step["run"])
            for job in yaml.safe_load(text)["jobs"].values()
            for step in job["steps"] if "run" in step]
    assert ci_local.parse_steps(text) == want
    assert any("\n" in command.rstrip("\n") for _, command in want)


def use_workflow(tmp_path, monkeypatch, *steps):
    """Point the runner at a workflow of the given (name, command) steps."""
    lines = ["jobs:", "  tests:", "    steps:"]
    for name, command in steps:
        lines += ["      - name: %s" % name, "        run: %s" % command]
    path = tmp_path / "tests.yml"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(ci_local, "WORKFLOW", path)


def test_a_step_over_the_time_limit_is_stopped_and_not_a_failure(tmp_path, monkeypatch, capsys):
    use_workflow(tmp_path, monkeypatch, ("Slow", "sleep 30"))
    start = time.perf_counter()
    assert ci_local.main(["--max-seconds", "0.5"]) == 0
    assert time.perf_counter() - start < 10
    out = capsys.readouterr().out
    assert "--- over the limit of 0.5 s: stopped" in out
    assert re.search(r"^over +0\.\d  Slow$", out, re.M)


def test_a_failing_step_still_fails_under_the_limit(tmp_path, monkeypatch, capsys):
    use_workflow(tmp_path, monkeypatch, ("Fails", "exit 3"), ("Slow", "sleep 30"))
    assert ci_local.main(["--max-seconds", "0.5"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^   3 +\d+\.\d  Fails$", out, re.M)
    assert "over the limit" in out
