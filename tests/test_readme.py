"""The README's command examples, each run in process through cli.main,
its block of configuration defaults against config.default_document, and
its module table against the package's modules."""

import json
import os
import shlex

import pytest

from eitsim.cli import main
from eitsim.config import CHOICES, default_document

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def command_examples():
    """(argv, status) of each `eitsim` line in the sh blocks under the
    README's "Commands" heading, continuation lines joined: status 4 where
    the line's own comment, or the comment line above it, says "exits 4",
    and 0 otherwise."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n### Commands\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```sh\n")[1:]:
        comment = ""
        for line in block.split("```", 1)[0].replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment = line
            elif line.startswith("eitsim "):
                status = 4 if "exits 4" in comment + line else 0
                examples.append((shlex.split(line, comments=True)[1:], status))
                comment = ""
    return examples


EXAMPLES = command_examples()


def test_every_command_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "spectrum", "window", "vg", "validate", "evolve", "params"}


@pytest.mark.parametrize("argv, status", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example_runs(tmp_path, argv, status):
    # the last --out wins, so every run writes into its own directory
    assert main([*argv, "--out", str(tmp_path)]) == status


def configuration_block():
    """The README's `jsonc` block, its `//` comments stripped, as parsed
    JSON."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads("\n".join(line.split("//", 1)[0]
                                for line in block.splitlines()))


def test_configuration_block_shows_the_defaults():
    shown, defaults = configuration_block(), default_document()
    for name, value in shown.items():
        if isinstance(value, dict):
            for key, item in value.items():
                assert item == defaults[name].get(key), f"{name}.{key}"
        else:
            assert value == defaults[name], name
    assert {f"conventions.{key}" for key in shown["conventions"]} \
        == {path for path in CHOICES if path.startswith("conventions.")}


def test_module_table_names_every_module():
    # the table under "What's inside" is the one index of the modules
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## What's inside\n", 1)[1] \
            .split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines()
              if line.startswith("| `eitsim.")]
    modules = {f"eitsim.{name[:-3]}"
               for name in os.listdir(os.path.join(ROOT, "src", "eitsim"))
               if name.endswith(".py") and name != "__init__.py"}
    assert sorted(listed) == sorted(modules)
