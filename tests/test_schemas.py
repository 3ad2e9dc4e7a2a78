"""The wire-schema registry (``repro.schemas``) agrees with the source tree.

Three checks, each on the imported registry and the parsed source of
``src/repro``:

* every versioned ``repro-*-vN`` tag is a constant in ``schemas.py``,
  never a string literal or an f-string anywhere else;
* every registered tag has both sides, and every declared in-tree module
  really names the tag's constant or mints it through ``envelope_tag``;
* every CLI envelope, whether a subcommand's ``--json`` or an emission
  call with a literal command name, resolves to a registered tag.

Each check is a helper run once on the real tree and once on synthetic
input carrying the defect it exists to catch.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import repro
from repro import schemas
from repro.cli import build_parser
from repro.schemas import (
    CAMPAIGN_ENVELOPE_V1,
    EXTERNAL,
    RECORD_V1,
    SCHEMAS,
    WireSchema,
    envelope_tag,
    registered,
)

SRC = Path(repro.__file__).resolve().parent

#: a full versioned wire tag, e.g. ``repro-record-v1``
TAG_RE = re.compile(r"repro-[a-z0-9-]+-v\d+")

#: calls whose literal first argument is a subcommand's envelope name
ENVELOPE_EMITTERS = {"envelope_tag", "_print_envelope", "_envelope_line"}

TREES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
    for path in sorted(SRC.rglob("*.py"))
}


def _call_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def tag_literals(tree):
    """Versioned tags written as string constants or spliced in f-strings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if TAG_RE.fullmatch(node.value):
                found.append(node.value)
        elif isinstance(node, ast.JoinedStr):
            head, tail = node.values[0], node.values[-1]
            if (
                isinstance(head, ast.Constant)
                and head.value.startswith("repro-")
                and isinstance(tail, ast.Constant)
                and re.search(r"-v\d+$", tail.value)
                and any(isinstance(v, ast.FormattedValue) for v in node.values)
            ):
                found.append(ast.unparse(node))
    return found


def envelope_commands(tree):
    """Literal command names passed to the envelope minting functions."""
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_name(node) in ENVELOPE_EMITTERS
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def names_tag(tree, tag):
    """Whether a module names ``tag``'s constant or mints ``tag``."""
    constants = {
        name for name, value in vars(schemas).items()
        if name.isupper() and value == tag
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in constants:
            return True
        if isinstance(node, ast.Attribute) and node.attr in constants:
            return True
        if isinstance(node, ast.alias) and node.name in constants:
            return True
    return any(envelope_tag(cmd) == tag for cmd in envelope_commands(tree))


def schema_problems(schema, trees):
    """What is missing or stale on either side of one registered tag."""
    problems = []
    if not (schema.producers or schema.legacy):
        problems.append("no producer")
    if not schema.consumers:
        problems.append("no consumer")
    for module in schema.producers + schema.consumers:
        if module.startswith(EXTERNAL):
            continue
        if module not in trees:
            problems.append(f"{module} does not exist")
        elif not names_tag(trees[module], schema.tag):
            problems.append(f"{module} never references the tag")
    return problems


def unregistered_envelopes(trees):
    """``(module, command)`` for each literal emission of an unknown tag."""
    return sorted(
        (rel, cmd)
        for rel, tree in trees.items()
        for cmd in envelope_commands(tree)
        if not registered(envelope_tag(cmd))
    )


def json_subcommands(parser):
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(
        name for name, sub in subparsers.choices.items()
        if any("--json" in action.option_strings for action in sub._actions)
    )


# -------------------------------------------------------------- the real tree


def test_no_tag_literal_outside_the_registry():
    literals = {
        rel: tag_literals(tree)
        for rel, tree in TREES.items()
        if rel != "schemas.py"
    }
    assert {rel: found for rel, found in literals.items() if found} == {}


@pytest.mark.parametrize("schema", SCHEMAS, ids=lambda s: s.tag)
def test_registered_tag_has_both_sides(schema):
    assert schema_problems(schema, TREES) == []


def test_every_json_subcommand_has_a_registered_envelope():
    commands = json_subcommands(build_parser())
    assert "lint" in commands and "trace" in commands
    assert [c for c in commands if not registered(envelope_tag(c))] == []


def test_every_emitted_envelope_is_registered():
    assert "campaign-shard" in envelope_commands(TREES["cli.py"])
    assert unregistered_envelopes(TREES) == []


# ------------------------------------------------ the checks on planted defects


@pytest.mark.parametrize("source, found", [
    pytest.param('FORMAT = "repro-record-v1"\n', ["repro-record-v1"],
                 id="literal"),
    pytest.param('FORMAT = "repro-mystery-v9"\n', ["repro-mystery-v9"],
                 id="unregistered-literal"),
    pytest.param('def tag(cmd):\n    return f"repro-{cmd}-v1"\n',
                 ["f'repro-{cmd}-v1'"], id="f-string"),
    pytest.param('"""The repro-record-v1 format is documented here."""\n', [],
                 id="prose"),
    pytest.param('x = "repro-tools"\ny = "v1"\n', [], id="non-tag"),
])
def test_tag_literals(source, found):
    assert tag_literals(ast.parse(source)) == found


SYNTHETIC = {
    "writer.py": ast.parse("from repro.schemas import RECORD_V1\nFMT = RECORD_V1\n"),
    "reader.py": ast.parse("import repro.schemas as s\nok = s.RECORD_V1\n"),
    "cli.py": ast.parse('def main():\n    _print_envelope("campaign", {})\n'),
    "bare.py": ast.parse("def read(payload):\n    return payload\n"),
}


@pytest.mark.parametrize("schema, problems", [
    pytest.param(WireSchema(RECORD_V1, "", ("writer.py",), ("reader.py",)), [],
                 id="balanced"),
    pytest.param(WireSchema(CAMPAIGN_ENVELOPE_V1, "", ("cli.py",),
                            (EXTERNAL + "tests",)), [], id="minted-envelope"),
    pytest.param(WireSchema(RECORD_V1, "", (), ("reader.py",)), ["no producer"],
                 id="missing-producer"),
    pytest.param(WireSchema(RECORD_V1, "", (), ("reader.py",), legacy=True), [],
                 id="legacy-needs-no-producer"),
    pytest.param(WireSchema(RECORD_V1, "", ("writer.py",), ()), ["no consumer"],
                 id="missing-consumer"),
    pytest.param(WireSchema(RECORD_V1, "", ("bare.py",), ("reader.py",)),
                 ["bare.py never references the tag"], id="stale-producer"),
    pytest.param(WireSchema(RECORD_V1, "", ("gone.py",), ("reader.py",)),
                 ["gone.py does not exist"], id="missing-module"),
])
def test_schema_problems(schema, problems):
    assert schema_problems(schema, SYNTHETIC) == problems


@pytest.mark.parametrize("source, unregistered", [
    pytest.param('_print_envelope("campaign", {})\n', [], id="registered"),
    pytest.param('print(_envelope_line("mystery", {}))\n',
                 [("cli.py", "mystery")], id="unregistered"),
    pytest.param("_print_envelope(command, {})\n", [], id="variable-command"),
])
def test_unregistered_envelopes(source, unregistered):
    assert unregistered_envelopes({"cli.py": ast.parse(source)}) == unregistered


def test_json_subcommands_sees_a_new_subcommand():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("audit").add_argument("--json", action="store_true")
    sub.add_parser("quiet")
    assert json_subcommands(parser) == ["audit"]
    assert not registered(envelope_tag("audit"))
