"""The local workflow runner reads the workflow as YAML does."""

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
