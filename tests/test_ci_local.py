import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ci_local  # noqa: E402

WORKFLOW = """\
name: tier-1
jobs:
  tests:
    steps:
      - uses: actions/checkout@v4
      - uses: actions/setup-python@v5
        with:
          python-version: "3.12"
      - name: One line
        run: echo one
      - name: A block
        shell: bash
        # a comment between keys
        run: |
          echo two

            echo three  # kept, as is the blank line above

    services: {}
"""


class TestWorkflowSteps:
    def test_keys_blocks_comments_and_nested_mappings(self):
        assert ci_local.workflow_steps(WORKFLOW) == [
            {"uses": "actions/checkout@v4"},
            {"uses": "actions/setup-python@v5"},
            {"name": "One line", "run": "echo one"},
            {"name": "A block", "shell": "bash",
             "run": "echo two\n\n  echo three  # kept, as is the blank line above\n"},
        ]

    def test_the_tier1_workflow_is_read_whole(self):
        steps = ci_local.workflow_steps(ci_local.WORKFLOW.read_text(encoding="utf-8"))
        runs = {step["name"]: step["run"] for step in steps if "run" in step}
        assert len(steps) == len(runs) + 2  # checkout and setup-python
        assert runs["Install"] == 'python -m pip install ".[test]"'
        readme = runs["README command-line examples through the installed epiflow script"]
        assert "-eq 8\n" in readme
        for run in runs.values():
            assert "${{" not in run
